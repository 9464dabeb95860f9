package graph

import (
	"fmt"
	"math/rand"
)

// Tree is a rooted tree over a subset of the vertices of a host graph.
// Storage is compact and member-indexed: a sorted member-id array, a parent
// slot per member slot, and shared children arrays sliced per member —
// about 24 bytes per member and nothing proportional to the host size, so a
// scheme holding thousands of cluster trees stays O(total membership), not
// O(trees · n). Children lists are ordered by vertex id (this order plays
// the role of the "port order" that tree-routing algorithms assume).
type Tree struct {
	Root       int
	hostN      int
	rootSlot   int32
	verts      []int32 // member ids, strictly ascending
	parSlot    []int32 // parent member slot per slot; NoVertex at the root slot
	childStart []int32 // len(verts)+1; children of slot i are childVerts[childStart[i]:childStart[i+1]]
	childVerts []int   // global child ids, ascending within each member
	childSlots []int32 // the same lists as member slots, for slot-pure traversals
}

// NewTree builds a rooted tree from parent pointers. parent must have one
// entry per host vertex; members are root plus every vertex with a parent.
// It validates that parent pointers form a tree rooted at root.
func NewTree(root int, parent []int) (*Tree, error) {
	n := len(parent)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("graph: tree root %d out of range [0,%d)", root, n)
	}
	if parent[root] != NoVertex {
		return nil, fmt.Errorf("graph: root %d has parent %d", root, parent[root])
	}
	size := 0
	for v, p := range parent {
		if v == root || p != NoVertex {
			size++
		}
	}
	verts := make([]int32, 0, size)
	par := make([]int32, 0, size)
	for v, p := range parent {
		if v != root && p == NoVertex {
			continue
		}
		if v != root && (p < 0 || p >= n) {
			return nil, fmt.Errorf("graph: vertex %d has parent %d out of range", v, p)
		}
		verts = append(verts, int32(v))
		par = append(par, int32(p))
	}
	return newTreeChecked(root, n, verts, par)
}

// NewTreeCompact builds a tree over an explicit member set without ever
// allocating host-sized state: verts must be strictly ascending member ids
// in [0, hostN) containing root, and par[i] is the tree parent of verts[i]
// (NoVertex exactly at the root). The tree takes ownership of both slices.
func NewTreeCompact(root, hostN int, verts, par []int32) (*Tree, error) {
	if root < 0 || root >= hostN {
		return nil, fmt.Errorf("graph: tree root %d out of range [0,%d)", root, hostN)
	}
	if len(verts) != len(par) {
		return nil, fmt.Errorf("graph: tree member/parent length mismatch %d != %d", len(verts), len(par))
	}
	for i, v := range verts {
		if v < 0 || int(v) >= hostN {
			return nil, fmt.Errorf("graph: tree member %d out of range [0,%d)", v, hostN)
		}
		if i > 0 && verts[i-1] >= v {
			return nil, fmt.Errorf("graph: tree members not strictly ascending at slot %d", i)
		}
	}
	return newTreeChecked(root, hostN, verts, par)
}

// newTreeChecked validates the compact representation (root present with
// parent NoVertex, member parents in range and themselves members, no
// cycles) and precomputes the children arrays.
func newTreeChecked(root, hostN int, verts, par []int32) (*Tree, error) {
	t := &Tree{Root: root, hostN: hostN, verts: verts}
	ri := t.slot(root)
	if ri < 0 {
		return nil, fmt.Errorf("graph: root %d is not a tree member", root)
	}
	t.rootSlot = int32(ri)
	if par[ri] != NoVertex {
		return nil, fmt.Errorf("graph: root %d has parent %d", root, par[ri])
	}
	// Resolve each member's parent to its slot, rejecting detached members.
	ps := make([]int32, len(verts))
	for i, p := range par {
		if i == ri {
			ps[i] = NoVertex
			continue
		}
		j := -1
		if p >= 0 && int(p) < hostN {
			j = t.slot(int(p))
		}
		if j < 0 {
			return nil, fmt.Errorf("graph: vertex %d detached from root (parent %d)", verts[i], p)
		}
		ps[i] = int32(j)
	}
	// Parents are kept as slots, not host ids: the host id is one array read
	// away (verts[parSlot[i]]) while traversals walk slots with no searches.
	t.parSlot = ps
	// Verify every member reaches the root (no cycles, no orphan clumps).
	state := make([]int8, len(verts)) // 0 unknown, 1 on current path, 2 verified
	state[ri] = 2
	var path []int32
	for i := range verts {
		if state[i] == 2 {
			continue
		}
		path = path[:0]
		x := int32(i)
		for state[x] == 0 {
			state[x] = 1
			path = append(path, x)
			x = ps[x]
		}
		if state[x] == 1 {
			return nil, fmt.Errorf("graph: parent pointers contain a cycle through %d", verts[x])
		}
		for _, y := range path {
			state[y] = 2
		}
	}
	// Children: count per parent slot, prefix-sum, then fill by ascending
	// member id so each child list comes out id-ordered.
	t.childStart = make([]int32, len(verts)+1)
	for i, p := range ps {
		if i != ri {
			t.childStart[p+1]++
		}
	}
	for i := 0; i < len(verts); i++ {
		t.childStart[i+1] += t.childStart[i]
	}
	t.childVerts = make([]int, len(verts)-1)
	t.childSlots = make([]int32, len(verts)-1)
	cursor := make([]int32, len(verts))
	copy(cursor, t.childStart[:len(verts)])
	for i, p := range ps {
		if i == ri {
			continue
		}
		t.childVerts[cursor[p]] = int(verts[i])
		t.childSlots[cursor[p]] = int32(i)
		cursor[p]++
	}
	return t, nil
}

// slot returns v's member slot, or -1 if v is not a member. The binary
// search is hand-rolled: this sits under every Parent/Children/MemberIndex
// call in the table-build and compile hot paths, and sort.Search's
// per-comparison closure call costs ~3x on top of the compares themselves.
func (t *Tree) slot(v int) int {
	w := int32(v)
	lo, hi := 0, len(t.verts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.verts[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.verts) && t.verts[lo] == w {
		return lo
	}
	return -1
}

// TreeFromSSSP converts a shortest-path tree into a Tree spanning all
// reachable vertices.
func TreeFromSSSP(r *SSSPResult) (*Tree, error) {
	return NewTree(r.Source, r.Parent)
}

// TreeFromBFS converts a BFS tree into a Tree.
func TreeFromBFS(r *BFSResult) (*Tree, error) {
	return NewTree(r.Source, r.Parent)
}

// HostSize returns the number of vertices in the host graph's id space.
func (t *Tree) HostSize() int { return t.hostN }

// Size returns the number of tree members.
func (t *Tree) Size() int { return len(t.verts) }

// Member reports whether v belongs to the tree.
func (t *Tree) Member(v int) bool { return t.slot(v) >= 0 }

// MemberIndex returns v's slot in the member order (Members()[i] == v), or
// -1 for non-members. Member-indexed side arrays (UpWeights, per-member
// routing state) are addressed through it.
func (t *Tree) MemberIndex(v int) int { return t.slot(v) }

// MemberAt returns the member id at slot i (the inverse of MemberIndex).
func (t *Tree) MemberAt(i int) int { return int(t.verts[i]) }

// Parent returns the tree parent of v (NoVertex for the root or
// non-members).
func (t *Tree) Parent(v int) int {
	i := t.slot(v)
	if i < 0 {
		return NoVertex
	}
	return t.ParentAt(i)
}

// Children returns v's children ordered by vertex id. Owned by the tree.
func (t *Tree) Children(v int) []int {
	i := t.slot(v)
	if i < 0 {
		return nil
	}
	return t.ChildrenAt(i)
}

// ParentAt is Parent for the member at slot i, with no search.
func (t *Tree) ParentAt(i int) int {
	p := t.parSlot[i]
	if p < 0 {
		return NoVertex
	}
	return int(t.verts[p])
}

// ChildrenAt is Children for the member at slot i, with no search.
func (t *Tree) ChildrenAt(i int) []int {
	return t.childVerts[t.childStart[i]:t.childStart[i+1]]
}

// Members returns all member vertex ids in increasing order.
func (t *Tree) Members() []int {
	out := make([]int, len(t.verts))
	for i, v := range t.verts {
		out[i] = int(v)
	}
	return out
}

// slotDepths returns each member slot's edge-depth below the root. Each
// slot is resolved once by walking up to the nearest known ancestor and
// filling the path back down, so the whole pass is O(members) with no
// searches.
func (t *Tree) slotDepths() []int32 {
	d := make([]int32, len(t.verts))
	for i := range d {
		d[i] = -1
	}
	d[t.rootSlot] = 0
	var path []int32
	for i := range t.verts {
		if d[i] >= 0 {
			continue
		}
		path = path[:0]
		x := int32(i)
		for d[x] < 0 {
			path = append(path, x)
			x = t.parSlot[x]
		}
		base := d[x]
		for j := len(path) - 1; j >= 0; j-- {
			base++
			d[path[j]] = base
		}
	}
	return d
}

// preOrderSlots returns member slots in depth-first preorder (children in
// id order).
func (t *Tree) preOrderSlots() []int32 {
	out := make([]int32, 0, len(t.verts))
	stack := append(make([]int32, 0, 64), t.rootSlot)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		cs := t.childSlots[t.childStart[u]:t.childStart[u+1]]
		for i := len(cs) - 1; i >= 0; i-- {
			stack = append(stack, cs[i])
		}
	}
	return out
}

// postOrderSlots returns member slots in depth-first postorder.
func (t *Tree) postOrderSlots() []int32 {
	out := make([]int32, len(t.verts))
	// Reverse preorder with reversed child order is a valid postorder.
	stack := append(make([]int32, 0, 64), t.rootSlot)
	idx := len(out)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx--
		out[idx] = u
		stack = append(stack, t.childSlots[t.childStart[u]:t.childStart[u+1]]...)
	}
	return out
}

// slotSubtreeSizes returns |subtree(slot)| per member slot.
func (t *Tree) slotSubtreeSizes() []int32 {
	s := make([]int32, len(t.verts))
	for _, u := range t.postOrderSlots() {
		sum := int32(1)
		for _, c := range t.childSlots[t.childStart[u]:t.childStart[u+1]] {
			sum += s[c]
		}
		s[u] = sum
	}
	return s
}

// Depths returns each member's edge-depth below the root (-1 for
// non-members), indexed by host vertex id.
func (t *Tree) Depths() []int {
	d := make([]int, t.hostN)
	for i := range d {
		d[i] = -1
	}
	for i, dep := range t.slotDepths() {
		d[t.verts[i]] = int(dep)
	}
	return d
}

// Height returns the maximum member depth.
func (t *Tree) Height() int {
	h := int32(0)
	for _, d := range t.slotDepths() {
		if d > h {
			h = d
		}
	}
	return int(h)
}

// PreOrder returns members in depth-first preorder (children in id order).
func (t *Tree) PreOrder() []int {
	slots := t.preOrderSlots()
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = int(t.verts[s])
	}
	return out
}

// PostOrder returns members in depth-first postorder.
func (t *Tree) PostOrder() []int {
	slots := t.postOrderSlots()
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = int(t.verts[s])
	}
	return out
}

// SubtreeSizes returns |subtree(v)| for every member (0 for non-members),
// indexed by host vertex id.
func (t *Tree) SubtreeSizes() []int {
	s := make([]int, t.hostN)
	for i, sz := range t.slotSubtreeSizes() {
		s[t.verts[i]] = int(sz)
	}
	return s
}

// HeavyChildren returns, for every member, the child with the largest
// subtree (ties broken toward the smaller id), or NoVertex for leaves.
// This is the decomposition at the heart of Thorup-Zwick tree routing: every
// root-to-vertex path crosses at most log2(n) non-heavy ("light") edges.
func (t *Tree) HeavyChildren() []int {
	sizes := t.slotSubtreeSizes()
	h := make([]int, t.hostN)
	for i := range h {
		h[i] = NoVertex
	}
	for i, v32 := range t.verts {
		best, bestSize := NoVertex, int32(-1)
		for _, c := range t.childSlots[t.childStart[i]:t.childStart[i+1]] {
			if sizes[c] > bestSize {
				best, bestSize = int(t.verts[c]), sizes[c]
			}
		}
		h[v32] = best
	}
	return h
}

// PathToRoot returns the vertex sequence v, parent(v), ..., root.
func (t *Tree) PathToRoot(v int) []int {
	i := t.slot(v)
	if i < 0 {
		return []int{v}
	}
	var out []int
	for x := int32(i); x != NoVertex; x = t.parSlot[x] {
		out = append(out, int(t.verts[x]))
	}
	return out
}

// TreeDistHops returns the number of tree edges between members u and v.
func (t *Tree) TreeDistHops(u, v int) int {
	iu, iv := int32(t.slot(u)), int32(t.slot(v))
	depth := func(i int32) int {
		d := 0
		for x := t.parSlot[i]; x != NoVertex; x = t.parSlot[x] {
			d++
		}
		return d
	}
	du, dv := depth(iu), depth(iv)
	hops := 0
	for du > dv {
		iu = t.parSlot[iu]
		du--
		hops++
	}
	for dv > du {
		iv = t.parSlot[iv]
		dv--
		hops++
	}
	for iu != iv {
		iu, iv = t.parSlot[iu], t.parSlot[iv]
		hops += 2
	}
	return hops
}

// SpanningTree extracts a spanning tree of a connected graph. kind selects
// the flavor: "bfs" (shallow), "sssp" (shortest-path tree, weighted), or
// "dfs" (deep — worst case for naive tree algorithms, the regime the paper's
// tree routing targets).
func SpanningTree(g *Graph, root int, kind string, r *rand.Rand) (*Tree, error) {
	switch kind {
	case "bfs":
		return TreeFromBFS(g.BFS(root))
	case "sssp":
		return TreeFromSSSP(g.Dijkstra(root))
	case "dfs":
		n := g.N()
		parent := make([]int, n)
		for i := range parent {
			parent[i] = NoVertex
		}
		visited := make([]bool, n)
		visited[root] = true
		stack := []int{root}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nbs := g.Neighbors(u)
			order := r.Perm(len(nbs))
			for _, i := range order {
				v := nbs[i].To
				if !visited[v] {
					visited[v] = true
					parent[v] = u
					stack = append(stack, v)
				}
			}
		}
		for v, ok := range visited {
			if !ok {
				return nil, fmt.Errorf("graph: spanning tree: vertex %d unreachable: %w", v, ErrDisconnected)
			}
		}
		return NewTree(root, parent)
	default:
		return nil, fmt.Errorf("graph: unknown spanning tree kind %q", kind)
	}
}

// TreeWeights returns, for each member v other than the root, the weight of
// the tree edge (v, parent(v)) looked up in the host graph g; missing edges
// get weight 1 (trees built over virtual edges). The slice is indexed by
// host vertex id — prefer the member-indexed UpWeights for anything kept
// alive per tree.
func (t *Tree) TreeWeights(g *Graph) []float64 {
	w := make([]float64, t.hostN)
	for i, v32 := range t.verts {
		v := int(v32)
		if v == t.Root {
			continue
		}
		if wt, ok := g.EdgeWeight(v, int(t.verts[t.parSlot[i]])); ok {
			w[v] = wt
		} else {
			w[v] = 1
		}
	}
	return w
}

// UpWeights returns, for each member slot i (addressed via MemberIndex),
// the weight of the tree edge (Members()[i], parent) looked up in the host
// topology; the root slot gets 0 and missing edges get weight 1 (trees
// built over virtual edges). Member-indexed, so a scheme retaining one
// slice per cluster tree stays O(total membership).
func (t *Tree) UpWeights(host Topology) []float64 {
	w := make([]float64, len(t.verts))
	for i, v32 := range t.verts {
		v := int(v32)
		if v == t.Root {
			continue
		}
		if wt, ok := TopoEdgeWeight(host, v, int(t.verts[t.parSlot[i]])); ok {
			w[i] = wt
		} else {
			w[i] = 1
		}
	}
	return w
}

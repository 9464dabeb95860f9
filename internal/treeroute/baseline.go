package treeroute

import (
	"fmt"
	"math"
	"math/rand"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// This file implements the EN16b/LPP16-style distributed tree routing that
// the paper improves on (first row of Table 2). The construction partitions
// the tree at ~sqrt(n) sampled portals like the paper's scheme, but then:
//
//   - builds a separate Thorup-Zwick scheme for every local tree,
//   - collects the ENTIRE virtual tree T' at the portals (this is the
//     Ω(sqrt(n)) memory hit: every portal stores all of T'), and builds a
//     separate TZ scheme for T',
//   - stitches the two levels together: crossing a virtual edge (a,b) means
//     routing inside T_a to the attachment point parent_T(b), which requires
//     carrying an O(log n)-word local label for every virtual light edge in
//     the destination label (the O(log^2 n) label hit) and storing the heavy
//     virtual child's attachment label in every table (the O(log n) table
//     hit), plus an O(log n)-word routing header.
//
// The data structures and the routing walk are real; communication costs are
// charged through the simulator's primitives (local floods as rounds
// proportional to local tree heights, T' collection and dissemination as
// convergecast/broadcast), since this scheme is a baseline rather than the
// paper's contribution.

// BaselineTable is the O(log n)-word table of the EN16b-style scheme.
type BaselineTable struct {
	Local       Table // TZ table within the local tree (Parent is global at portals)
	LocalRoot   int
	VirtIn      int // T'-interval of the local root
	VirtOut     int
	HeavyAttach *VirtEdgeAttach // attachment of the local root's T'-heavy child
}

// Words returns the table size in CONGEST RAM words.
func (t BaselineTable) Words() int {
	w := t.Local.Words() + 3
	if t.HeavyAttach != nil {
		w += t.HeavyAttach.Words()
	}
	return w
}

// VirtEdgeAttach describes how to traverse one virtual edge (a, b) of T':
// route inside T_a to the attachment point parent_T(b) (by its local label),
// then hop the tree edge to portal b.
type VirtEdgeAttach struct {
	Parent int   // a: portal owning the local tree to route through
	Child  int   // b: portal entered after the attachment point
	Attach Label // local label of parent_T(b) inside T_a
}

// Words returns the entry size in words.
func (e VirtEdgeAttach) Words() int { return 2 + e.Attach.Words() }

// BaselineLabel is the O(log^2 n)-word label of the EN16b-style scheme.
type BaselineLabel struct {
	LocalRoot int
	VirtIn    int   // T'-DFS entry time of LocalRoot
	Local     Label // label within the local tree
	// LightAttach carries, for every light virtual edge on the T'-path
	// from the root to LocalRoot, the attachment information - each entry
	// costs O(log n) words, and there are up to log n of them.
	LightAttach []VirtEdgeAttach
}

// Words returns the label size in words.
func (l BaselineLabel) Words() int {
	w := 2 + l.Local.Words()
	for _, e := range l.LightAttach {
		w += e.Words()
	}
	return w
}

// BaselineHeader is the O(log n)-word routing header carried by messages
// while they traverse a virtual edge.
type BaselineHeader struct {
	Attach Label // intra-tree target: the attachment point's local label
	Child  int   // portal to hop to once the attachment point is reached
}

// BaselineScheme is a complete EN16b-style tree-routing scheme: a table and
// a label per member of Tree, stored by member slot like Scheme.
type BaselineScheme struct {
	Tree   *graph.Tree
	Tables []BaselineTable
	Labels []BaselineLabel
}

// Table returns v's routing table; ok is false when v is not a member.
func (s *BaselineScheme) Table(v int) (BaselineTable, bool) { return member(s.Tree, s.Tables, v) }

// Label returns v's routing label; ok is false when v is not a member.
func (s *BaselineScheme) Label(v int) (BaselineLabel, bool) { return member(s.Tree, s.Labels, v) }

// MaxTableWords returns the largest table size in words.
func (s *BaselineScheme) MaxTableWords() int { return maxWords(s.Tables) }

// MaxLabelWords returns the largest label size in words.
func (s *BaselineScheme) MaxLabelWords() int { return maxWords(s.Labels) }

// BuildBaseline constructs the EN16b-style scheme for one tree, charging its
// communication costs to the simulator.
func BuildBaseline(sim *congest.Simulator, t *graph.Tree, opts DistOptions) (*BaselineScheme, error) {
	n := sim.N()
	if t.HostSize() != n {
		return nil, fmt.Errorf("treeroute: tree host size %d != graph size %d", t.HostSize(), n)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	q := opts.Q
	if q <= 0 || q > 1 {
		q = 1 / math.Sqrt(float64(n))
	}

	// Portal sampling and partition into local trees. owner[i] is the
	// index in portals (preorder) of the local root above member slot i.
	m := t.Size()
	inU := make([]bool, m)
	for i := range inU {
		inU[i] = t.MemberAt(i) == t.Root || rng.Float64() < q
	}
	owner := make([]int32, m)
	var portals []int
	for _, v := range t.PreOrder() {
		i := t.MemberIndex(v)
		if inU[i] {
			owner[i] = int32(len(portals))
			portals = append(portals, v)
		} else {
			owner[i] = owner[t.MemberIndex(t.Parent(v))]
		}
	}
	localOf := func(v int) int32 { return owner[t.MemberIndex(v)] }

	// Build the local trees and their TZ schemes; track the max height for
	// round accounting of the local flood phases. Scanning member slots
	// ascending fills each local tree's member list in ascending order, the
	// compact tree's input.
	verts, pars := make([][]int32, len(portals)), make([][]int32, len(portals))
	for i, p := range owner {
		par := t.ParentAt(i)
		if inU[i] {
			par = graph.NoVertex
		}
		verts[p] = append(verts[p], int32(t.MemberAt(i)))
		pars[p] = append(pars[p], int32(par))
	}
	local := make([]*Scheme, len(portals))
	maxLocalHeight := 0
	for p, w := range portals {
		lt, err := graph.NewTreeCompact(w, n, verts[p], pars[p])
		if err != nil {
			return nil, fmt.Errorf("treeroute: baseline local tree at %d: %w", w, err)
		}
		if h := lt.Height(); h > maxLocalHeight {
			maxLocalHeight = h
		}
		ls := BuildCentralized(lt)
		// The portal's upward move leaves its local tree: restore the
		// global tree parent.
		ls.Tables[lt.MemberIndex(w)].Parent = t.Parent(w)
		local[p] = ls
	}

	// Virtual tree T' over the portals; every portal stores all of T'
	// (the Ω(sqrt(n)) memory signature of this scheme).
	virtParent := make([]int, n)
	for i := range virtParent {
		virtParent[i] = graph.NoVertex
	}
	for _, x := range portals {
		if x != t.Root {
			virtParent[x] = portals[localOf(t.Parent(x))]
		}
	}
	vt, err := graph.NewTree(t.Root, virtParent)
	if err != nil {
		return nil, fmt.Errorf("treeroute: baseline virtual tree: %w", err)
	}
	virt := BuildCentralized(vt)

	// Cost model (per EN16b): four local flood phases bounded by the local
	// tree heights; convergecast of T' (virtConvWords per portal: the portal
	// id and its virtual parent) to the root; broadcast of the T' scheme
	// (interval + parent + heavy per portal).
	const virtConvWords = 2
	sim.AddRounds(int64(4 * (maxLocalHeight + 1)))
	var cmsgs, bmsgs []congest.BroadcastMsg
	var virtSchemeWords int64
	for _, x := range portals {
		cmsgs = append(cmsgs, congest.BroadcastMsg{Origin: x, Words: virtConvWords})
		vlab, _ := virt.Label(x)
		w := 4 + vlab.Words()
		bmsgs = append(bmsgs, congest.BroadcastMsg{Origin: x, Words: w})
		virtSchemeWords += int64(w)
	}
	sim.Convergecast(t.Root, cmsgs, nil)
	sim.Broadcast(bmsgs, nil)
	for _, x := range portals {
		// Every portal stores the whole virtual tree (2 words per portal)
		// and the locally computed T' scheme for all portals - the
		// Ω(sqrt(n)) memory signature of [EN16b, LPP16].
		sim.Mem(x).Charge(2*int64(len(portals)) + virtSchemeWords)
	}

	attachOf := func(b int) VirtEdgeAttach {
		a := vt.Parent(b)
		ap := t.Parent(b) // attachment point: b's tree parent inside T_a
		lab, _ := local[localOf(a)].Label(ap)
		return VirtEdgeAttach{Parent: a, Child: b, Attach: lab}
	}

	s := &BaselineScheme{
		Tree:   t,
		Tables: make([]BaselineTable, m),
		Labels: make([]BaselineLabel, m),
	}
	for i, p := range owner {
		v, x := t.MemberAt(i), portals[p]
		vtab, _ := virt.Table(x)
		vlab, _ := virt.Label(x)
		ltab, _ := local[p].Table(v)
		llab, _ := local[p].Label(v)
		btab := BaselineTable{
			Local:     ltab,
			LocalRoot: x,
			VirtIn:    vtab.In,
			VirtOut:   vtab.Out,
		}
		if vtab.Heavy != graph.NoVertex {
			a := attachOf(vtab.Heavy)
			btab.HeavyAttach = &a
		}
		blab := BaselineLabel{
			LocalRoot: x,
			VirtIn:    vlab.In,
			Local:     llab,
		}
		for _, e := range vlab.Light {
			blab.LightAttach = append(blab.LightAttach, attachOf(e.Child))
		}
		s.Tables[i] = btab
		s.Labels[i] = blab
		sim.Mem(v).Charge(int64(btab.Words() + blab.Words()))
	}
	return s, nil
}

// NextHopBaseline applies one forwarding step of the EN16b-style scheme at
// vertex self. The header threads intra-tree traversal of virtual edges; the
// returned header must accompany the message to the next hop.
func NextHopBaseline(self int, tab BaselineTable, target BaselineLabel, h *BaselineHeader) (next int, nh *BaselineHeader, arrived bool) {
	if target.LocalRoot == tab.LocalRoot && target.Local.In == tab.Local.In {
		return self, nil, true
	}
	if h != nil {
		// Walking a virtual edge: head for the attachment point.
		nxt, at := NextHop(self, tab.Local, h.Attach)
		if at {
			return h.Child, nil, false // hop the tree edge to the portal
		}
		return nxt, h, false
	}
	if target.LocalRoot == tab.LocalRoot {
		nxt, _ := NextHop(self, tab.Local, target.Local)
		return nxt, nil, false
	}
	if target.VirtIn < tab.VirtIn || target.VirtIn > tab.VirtOut {
		// The destination's local tree is not below ours: climb.
		return tab.Local.Parent, nil, false
	}
	// Descend one virtual edge: a light one recorded in the label, or the
	// local root's heavy virtual child.
	var edge *VirtEdgeAttach
	for i := range target.LightAttach {
		if target.LightAttach[i].Parent == tab.LocalRoot {
			edge = &target.LightAttach[i]
			break
		}
	}
	if edge == nil {
		edge = tab.HeavyAttach
	}
	if edge == nil {
		return graph.NoVertex, nil, false
	}
	hdr := &BaselineHeader{Attach: edge.Attach, Child: edge.Child}
	nxt, at := NextHop(self, tab.Local, hdr.Attach)
	if at {
		return hdr.Child, nil, false
	}
	return nxt, hdr, false
}

// RouteAppend walks a message from src to dst, appending the vertex path
// (inclusive of both endpoints) to path. It fails if the scheme misroutes
// (exceeds 2·|T| hops, or reaches a vertex without a table).
func (s *BaselineScheme) RouteAppend(src, dst int, path []int) ([]int, error) {
	target, ok := s.Label(dst)
	if !ok {
		return path, fmt.Errorf("treeroute: baseline: no label for destination %d", dst)
	}
	path = append(path, src)
	cur := src
	var hdr *BaselineHeader
	limit := 2*len(s.Tables) + 2
	for steps := 0; ; steps++ {
		if steps > limit {
			return path, fmt.Errorf("treeroute: baseline: routing loop from %d to %d", src, dst)
		}
		tab, ok := s.Table(cur)
		if !ok {
			return path, fmt.Errorf("treeroute: baseline: no table at %d", cur)
		}
		next, nh, arrived := NextHopBaseline(cur, tab, target, hdr)
		if arrived {
			return path, nil
		}
		if next == graph.NoVertex {
			return path, fmt.Errorf("treeroute: baseline: dead end at %d routing %d->%d", cur, src, dst)
		}
		hdr = nh
		path = append(path, next)
		cur = next
	}
}

// MaxHeaderWords returns the worst-case header size of the scheme in words
// (attachment label plus portal id).
func (s *BaselineScheme) MaxHeaderWords() int {
	mx := 0
	for _, l := range s.Labels {
		for _, e := range l.LightAttach {
			if w := 1 + e.Attach.Words(); w > mx {
				mx = w
			}
		}
	}
	for _, t := range s.Tables {
		if t.HeavyAttach != nil {
			if w := 1 + t.HeavyAttach.Attach.Words(); w > mx {
				mx = w
			}
		}
	}
	return mx
}

// Package clusterroute holds the routing-phase machinery shared by every
// general-graph scheme in this repository (the centralized Thorup-Zwick
// reference, the paper's distributed scheme, and the LP15/EN16b-style
// baselines): the cluster trees with their tree-routing schemes, stored by
// member slot, and per-vertex labels carrying one pivot entry per hierarchy
// level. A vertex's table is a view over the clusters containing it.
// Routing walks the scheme compiled into flat arrays (internal/dataplane):
// pick the lowest mutual cluster and route exactly in its tree. A single
// tree's scheme is the one-cluster case (FromTree).
package clusterroute

import (
	"math"
	"math/rand"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

// SampleHierarchy draws the Thorup-Zwick hierarchy A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}
// over n >= 1 vertices: A_0 = V and A_i keeps each vertex of A_{i-1} with
// probability n^{-1/k} (A_k = ∅ is implicit). The scheme needs a nonempty
// top level, so an empty A_{k-1} is reseeded with one vertex of the deepest
// nonempty level and any emptied level between them is refilled from above,
// which keeps the levels nested. topOf[v] is the highest level containing v.
func SampleHierarchy(n, k int, rng *rand.Rand) (levels [][]int, topOf []int) {
	p := math.Pow(float64(n), -1/float64(k))
	levels = make([][]int, k)
	levels[0] = make([]int, n)
	for v := 0; v < n; v++ {
		levels[0][v] = v
	}
	for i := 1; i < k; i++ {
		for _, v := range levels[i-1] {
			if rng.Float64() < p {
				levels[i] = append(levels[i], v)
			}
		}
	}
	if k > 1 && len(levels[k-1]) == 0 {
		j := k - 2
		for len(levels[j]) == 0 {
			j--
		}
		levels[k-1] = []int{levels[j][rng.Intn(len(levels[j]))]}
	}
	for i := k - 2; i >= 1; i-- {
		if len(levels[i]) == 0 {
			levels[i] = append([]int(nil), levels[i+1]...)
		}
	}
	topOf = make([]int, n)
	for i, level := range levels {
		for _, v := range level {
			topOf[v] = i
		}
	}
	return levels, topOf
}

// PivotEntry is one hierarchy level's entry in a vertex label.
type PivotEntry struct {
	Level     int
	Root      int
	InCluster bool
	TreeLabel treeroute.Label
}

// Label is the O(k log n)-word routing label of a vertex.
type Label struct {
	Vertex  int
	Entries []PivotEntry
}

// Words returns the label size in CONGEST RAM words.
func (l Label) Words() int {
	w := 1
	for _, e := range l.Entries {
		w += 2
		if e.InCluster {
			w += e.TreeLabel.Words()
		}
	}
	return w
}

// TableEntry is one cluster's tree-routing table in a vertex's table.
type TableEntry struct {
	Center int
	Tree   treeroute.Table
}

// Table is a vertex's routing table: one tree-routing table per cluster
// containing it, in ascending center order.
type Table []TableEntry

// Words returns the table size in words.
func (t Table) Words() int {
	w := 0
	for _, e := range t {
		w += 1 + e.Tree.Words()
	}
	return w
}

// Cluster is one cluster tree of a scheme: its center (the tree's root),
// the tree, its Thorup-Zwick tree-routing scheme and the up-edge weight of
// every member, the last two stored by member slot of Tree.
type Cluster struct {
	Center  int
	Tree    *graph.Tree
	Scheme  *treeroute.Scheme
	Weights []float64
}

// Scheme is a complete cluster-forest routing scheme. Routing state lives
// in the clusters, by member slot; a vertex's table is a view over the
// clusters containing it (Table).
type Scheme struct {
	K        int
	Labels   []Label
	Clusters []Cluster // in AddTree order

	index []int32 // center -> index in Clusters, -1 for a non-center
	count []int32 // per vertex: the number of clusters containing it
}

// New returns an empty scheme over n vertices.
func New(k, n int) *Scheme {
	s := &Scheme{
		K:      k,
		Labels: make([]Label, n),
		index:  make([]int32, n),
		count:  make([]int32, n),
	}
	for v := 0; v < n; v++ {
		s.Labels[v] = Label{Vertex: v}
		s.index[v] = -1
	}
	return s
}

// FromTree returns the one-cluster scheme of a tree-routing scheme: its
// tree is the only cluster, and each member's label holds one entry for
// it. dataplane.Compile turns it into the table that walks ts.
func FromTree(ts *treeroute.Scheme, host graph.Topology) *Scheme {
	t := ts.Tree
	s := New(1, t.HostSize())
	s.AddTree(ts, host)
	for i := 0; i < t.Size(); i++ {
		s.AddLabelEntry(t.MemberAt(i), 0, t.Root)
	}
	return s
}

// AddTree registers the cluster of ts, centered at its tree's root. Edge
// weights for path-length accounting are looked up in the host topology
// and stored member-indexed (one word per member, not per host vertex), so
// a scheme holding thousands of cluster trees stays O(total membership).
func (s *Scheme) AddTree(ts *treeroute.Scheme, host graph.Topology) {
	t := ts.Tree
	s.index[t.Root] = int32(len(s.Clusters))
	s.Clusters = append(s.Clusters, Cluster{Center: t.Root, Tree: t, Scheme: ts, Weights: t.UpWeights(host)})
	for i := 0; i < t.Size(); i++ {
		s.count[t.MemberAt(i)]++
	}
}

// Cluster returns the cluster centered at center, or nil when the scheme
// has none.
func (s *Scheme) Cluster(center int) *Cluster {
	if i := s.index[center]; i >= 0 {
		return &s.Clusters[i]
	}
	return nil
}

// AddLabelEntry appends one pivot entry to v's label; the tree label is
// attached when the scheme has root's cluster and v is a member. Call it
// after the cluster's AddTree.
func (s *Scheme) AddLabelEntry(v, level, root int) {
	e := PivotEntry{Level: level, Root: root}
	if c := s.Cluster(root); c != nil {
		e.TreeLabel, e.InCluster = c.Scheme.Label(v)
	}
	s.Labels[v].Entries = append(s.Labels[v].Entries, e)
}

// AddLabels fills every label with one entry per hierarchy level, in level
// order: pivot[j][v] is v's level-j pivot, and a level with pivot NoVertex
// gets no entry. The tree label is attached where v lies in its pivot's
// cluster, so call it once, after every AddTree. The entries of all labels
// share one allocation.
func (s *Scheme) AddLabels(pivot [][]int) {
	k := len(pivot)
	entries := make([]PivotEntry, len(s.Labels)*k)
	for v := range s.Labels {
		s.Labels[v].Entries, entries = entries[:0:k], entries[k:]
		for j, roots := range pivot {
			if root := roots[v]; root != graph.NoVertex {
				s.AddLabelEntry(v, j, root)
			}
		}
	}
}

// Memberships returns the number of clusters containing v.
func (s *Scheme) Memberships(v int) int { return int(s.count[v]) }

// Table returns v's routing table, gathered from the clusters containing
// it in ascending center order.
func (s *Scheme) Table(v int) Table {
	tab := make(Table, 0, s.count[v])
	for center := range s.index {
		if c := s.Cluster(center); c != nil {
			if tt, ok := c.Scheme.Table(v); ok {
				tab = append(tab, TableEntry{Center: center, Tree: tt})
			}
		}
	}
	return tab
}

// TableWords returns the size of v's table in words: a center id and a
// tree-routing table per cluster containing v.
func (s *Scheme) TableWords(v int) int { return s.Memberships(v) * (1 + treeroute.Table{}.Words()) }

// MaxTableWords returns the largest table size in words.
func (s *Scheme) MaxTableWords() int {
	return s.MaxClustersPerVertex() * (1 + treeroute.Table{}.Words())
}

// MaxLabelWords returns the largest label size in words.
func (s *Scheme) MaxLabelWords() int {
	mx := 0
	for _, l := range s.Labels {
		if w := l.Words(); w > mx {
			mx = w
		}
	}
	return mx
}

// MaxClustersPerVertex returns the largest number of cluster trees any
// vertex participates in (Claim 6's quantity).
func (s *Scheme) MaxClustersPerVertex() int {
	mx := int32(0)
	for _, c := range s.count {
		if c > mx {
			mx = c
		}
	}
	return int(mx)
}

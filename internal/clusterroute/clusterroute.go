// Package clusterroute holds the routing-phase machinery shared by every
// general-graph scheme in this repository (the centralized Thorup-Zwick
// reference, the paper's distributed scheme, and the LP15/EN16b-style
// baselines): per-vertex tables mapping cluster centers to tree-routing
// tables and per-vertex labels carrying one pivot entry per hierarchy
// level. Routing walks the scheme compiled into flat arrays
// (internal/dataplane): pick the lowest mutual cluster and route exactly in
// its tree.
package clusterroute

import (
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

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

// Table is a vertex's routing table: one tree-routing table per cluster
// containing it.
type Table struct {
	Trees map[int]treeroute.Table // keyed by cluster center
}

// Words returns the table size in words.
func (t Table) Words() int {
	w := 0
	for _, tt := range t.Trees {
		w += 1 + tt.Words()
	}
	return w
}

// Scheme is a complete cluster-forest routing scheme.
type Scheme struct {
	K      int
	Tables []Table
	Labels []Label
	// ClusterTrees maps every cluster center to its cluster tree.
	ClusterTrees map[int]*graph.Tree

	weights map[int][]float64
}

// New returns an empty scheme over n vertices.
func New(k, n int) *Scheme {
	s := &Scheme{
		K:            k,
		Tables:       make([]Table, n),
		Labels:       make([]Label, n),
		ClusterTrees: make(map[int]*graph.Tree),
		weights:      make(map[int][]float64),
	}
	for v := 0; v < n; v++ {
		s.Tables[v] = Table{Trees: make(map[int]treeroute.Table)}
		s.Labels[v] = Label{Vertex: v}
	}
	return s
}

// AddTree registers a cluster tree and installs its tree-routing tables in
// every member's routing table. Edge weights for path-length accounting are
// looked up in the host topology and stored member-indexed (one word per
// member, not per host vertex), so a scheme holding thousands of cluster
// trees stays O(total membership).
func (s *Scheme) AddTree(center int, tree *graph.Tree, host graph.Topology, ts *treeroute.Scheme) {
	s.ClusterTrees[center] = tree
	s.weights[center] = tree.UpWeights(host)
	for i := 0; i < tree.Size(); i++ {
		v := tree.MemberAt(i)
		s.Tables[v].Trees[center] = ts.Tables[v]
	}
}

// AddLabelEntry appends one pivot entry to v's label; the tree label is
// attached when the scheme has the cluster and v is a member.
func (s *Scheme) AddLabelEntry(v, level, root int, ts *treeroute.Scheme) {
	e := PivotEntry{Level: level, Root: root}
	if ts != nil {
		if lab, in := ts.Labels[v]; in {
			e.InCluster = true
			e.TreeLabel = lab
		}
	}
	s.Labels[v].Entries = append(s.Labels[v].Entries, e)
}

// TreeWeights returns the member-indexed up-edge weights of the cluster
// tree rooted at center: weights[i] is the weight of the tree edge from
// member ClusterTrees[center].MemberAt(i) to its parent (0 at the root
// slot; address slots via Tree.MemberIndex). Nil when the scheme holds no
// such tree. The returned slice is the scheme's own storage — callers must
// not mutate it.
func (s *Scheme) TreeWeights(center int) []float64 { return s.weights[center] }

// MaxTableWords returns the largest table size in words.
func (s *Scheme) MaxTableWords() int {
	mx := 0
	for _, t := range s.Tables {
		if w := t.Words(); w > mx {
			mx = w
		}
	}
	return mx
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
	mx := 0
	for _, t := range s.Tables {
		if len(t.Trees) > mx {
			mx = len(t.Trees)
		}
	}
	return mx
}

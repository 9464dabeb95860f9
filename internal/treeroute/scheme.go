// Package treeroute implements exact compact routing on trees, the first
// contribution of Elkin-Neiman (PODC 2018).
//
// Three constructions of the same Thorup-Zwick tree-routing scheme are
// provided:
//
//   - BuildCentralized: the classical sequential construction [TZ01b],
//     used as the correctness reference (and by centralized baselines).
//   - BuildDistributed: the paper's low-memory distributed construction
//     (Section 3 + Appendix A): O(1)-word tables, O(log n)-word labels,
//     O(log n) words of working memory per vertex, Õ(√n + D) rounds.
//   - BuildBaseline: the earlier EN16b/LPP16-style distributed construction
//     that materialises the virtual tree at portal vertices: O(log n)
//     tables, O(log² n) labels, Ω(√n) memory - the scheme the paper
//     improves upon (Table 2's first row).
//
// BuildCentralized and BuildDistributed produce interchangeable Scheme
// values, stored by member slot of their tree. A Scheme is walked through
// the compiled table: clusterroute.FromTree makes it a one-cluster scheme
// and dataplane.Compile flattens that, so tree routes and cluster-forest
// routes share one forwarder. BuildBaseline's scheme is a different one (it
// threads a header across virtual edges) and keeps its own walk,
// BaselineScheme.RouteAppend, built on NextHop.
package treeroute

import "lowmemroute/internal/graph"

// LightEdge is a non-heavy tree edge (Parent, Child) recorded in a label.
type LightEdge struct {
	Parent, Child int
}

// Table is the O(1)-word routing table of one tree vertex: its DFS interval,
// its tree parent, and its heavy child. Exactly the table of [TZ01b].
type Table struct {
	In, Out int
	Parent  int // graph.NoVertex at the root
	Heavy   int // graph.NoVertex at leaves
}

// Words returns the table size in CONGEST RAM words.
func (t Table) Words() int { return 4 }

// Label is the O(log n)-word routing label of one tree vertex: its DFS entry
// time plus the light edges on its root path. Exactly the label of [TZ01b].
type Label struct {
	In    int
	Light []LightEdge
}

// Words returns the label size in CONGEST RAM words.
func (l Label) Words() int { return 1 + 2*len(l.Light) }

// Scheme is a complete tree-routing scheme: a table and a label per member
// of Tree, stored by member slot (Tables[i] and Labels[i] belong to
// Tree.MemberAt(i)).
type Scheme struct {
	Tree   *graph.Tree
	Tables []Table
	Labels []Label
}

// Table returns v's routing table; ok is false when v is not a member.
func (s *Scheme) Table(v int) (Table, bool) { return member(s.Tree, s.Tables, v) }

// Label returns v's routing label; ok is false when v is not a member.
func (s *Scheme) Label(v int) (Label, bool) { return member(s.Tree, s.Labels, v) }

// member returns v's entry of xs, which is stored by member slot of t; ok
// is false when v is not a member.
func member[T any](t *graph.Tree, xs []T, v int) (x T, ok bool) {
	if i := t.MemberIndex(v); i >= 0 {
		return xs[i], true
	}
	return x, false
}

// NextHop applies the Thorup-Zwick forwarding rule at vertex self: deliver
// if the target is self; go to the parent if the target is outside self's
// subtree; follow the recorded light edge out of self if the target's label
// names one; otherwise descend to the heavy child. The compiled table
// (internal/dataplane) walks Scheme values with this same rule; NextHop
// itself serves the EN16b-style baseline walk.
func NextHop(self int, tab Table, target Label) (next int, arrived bool) {
	if target.In == tab.In {
		return self, true
	}
	if target.In < tab.In || target.In > tab.Out {
		return tab.Parent, false
	}
	for _, e := range target.Light {
		if e.Parent == self {
			return e.Child, false
		}
	}
	return tab.Heavy, false
}

// maxWords returns the largest Words() among xs, 0 when xs is empty.
func maxWords[T interface{ Words() int }](xs []T) int {
	mx := 0
	for _, x := range xs {
		if w := x.Words(); w > mx {
			mx = w
		}
	}
	return mx
}

// MaxTableWords returns the largest table size in words.
func (s *Scheme) MaxTableWords() int { return maxWords(s.Tables) }

// MaxLabelWords returns the largest label size in words.
func (s *Scheme) MaxLabelWords() int { return maxWords(s.Labels) }

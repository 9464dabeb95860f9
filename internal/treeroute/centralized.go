package treeroute

import "lowmemroute/internal/graph"

// BuildCentralized constructs the classical Thorup-Zwick tree-routing scheme
// sequentially: tables of O(1) words and labels of O(log n) words, exact
// routing. It is the correctness reference for the distributed
// constructions and the "TZ01b" row of Table 2.
func BuildCentralized(t *graph.Tree) *Scheme {
	sizes := t.SubtreeSizes()
	heavy := t.HeavyChildren()
	m := t.Size()
	s := &Scheme{Tree: t, Tables: make([]Table, m), Labels: make([]Label, m)}

	// Assign DFS ranges [in, in+size-1] with children visited in the
	// tree's canonical (port) order, and accumulate light-edge lists along
	// root paths. Preorder reaches a parent before its children, so each
	// child extends its parent's finished entry time and light list. Every
	// array is indexed by member slot, so the walk allocates nothing
	// proportional to the host.
	s.Labels[t.MemberIndex(t.Root)].In = 1
	for _, iu := range t.PreOrderSlots() {
		u := t.MemberAt(int(iu))
		start := s.Labels[iu].In + 1
		for _, ic := range t.ChildSlotsAt(int(iu)) {
			s.Labels[ic].In = start
			start += sizes[ic]
			light := s.Labels[iu].Light
			if c := t.MemberAt(int(ic)); c != heavy[iu] {
				list := make([]LightEdge, len(light), len(light)+1)
				copy(list, light)
				light = append(list, LightEdge{Parent: u, Child: c})
			}
			s.Labels[ic].Light = light
		}
	}

	for i := range s.Tables {
		in := s.Labels[i].In
		s.Tables[i] = Table{In: in, Out: in + sizes[i] - 1, Parent: t.ParentAt(i), Heavy: heavy[i]}
	}
	return s
}

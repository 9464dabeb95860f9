package treeroute

import (
	"math/rand"
	"strings"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
)

// buildFaulty builds the distributed scheme under a fault plan and the
// centralized reference on the same tree.
func buildFaulty(t *testing.T, g *graph.CSR, tr *graph.Tree, opts DistOptions, plan *faults.Plan) (*Scheme, *Scheme, *congest.Simulator) {
	t.Helper()
	sim := congest.NewTopo(g, congest.WithFaults(plan))
	res, err := BuildDistributed(sim, []*graph.Tree{tr}, opts)
	if err != nil {
		t.Fatalf("BuildDistributed under faults: %v", err)
	}
	if len(res.Schemes) != 1 {
		t.Fatalf("got %d schemes", len(res.Schemes))
	}
	return res.Schemes[0], BuildCentralized(tr), sim
}

// TestDistributedUnderLinkFaults checks that dropped, delayed, and duplicated
// deliveries change only the construction's cost, never its output: the
// scheme built under a lossy plan must still match the centralized reference
// exactly.
func TestDistributedUnderLinkFaults(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := graph.RandomTree(60, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(g, 0, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Seed: 9, Drop: 0.15, Delay: 1, Duplicate: 0.15}
	dist, central, sim := buildFaulty(t, g, tr, DistOptions{Seed: 3}, plan)
	RequireSchemesEqual(t, dist, central)
	ctr := sim.FaultCounters()
	if ctr.Dropped == 0 || ctr.Duplicated == 0 || ctr.DelayRounds == 0 {
		t.Fatalf("fault plan saw no action: %+v", ctr)
	}
	if ctr.Lost != 0 {
		t.Fatalf("retry budget should absorb drop=0.15, got %d lost", ctr.Lost)
	}
	if ctr.Dropped != ctr.Retried+ctr.Lost {
		t.Fatalf("counter invariant violated: %+v", ctr)
	}
}

// TestDistributedDuplicateStorm hammers the duplicate-suppression paths: with
// every other delivery cloned, the size convergecasts, light floods, prefix
// adds, and shift floods must all ignore the extra copies.
func TestDistributedDuplicateStorm(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, tt := range []struct {
		name string
		g    *graph.CSR
	}{
		{"star", graph.Star(40, graph.UnitWeights, r)},
		{"balanced", graph.BalancedTree(40, 3, graph.UnitWeights, r)},
		{"caterpillar", graph.Caterpillar(12, 36, graph.UnitWeights, r)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tr, err := graph.SpanningTree(tt.g, 0, "dfs", r)
			if err != nil {
				t.Fatal(err)
			}
			plan := &faults.Plan{Seed: 2, Duplicate: 0.5}
			dist, central, sim := buildFaulty(t, tt.g, tr, DistOptions{Seed: 4}, plan)
			RequireSchemesEqual(t, dist, central)
			if sim.FaultCounters().Duplicated == 0 {
				t.Fatal("duplicate storm produced no duplicates")
			}
		})
	}
}

// TestDistributedFaultCostAboveClean checks that faults are charged, not
// hidden: the faulty run must report at least as many rounds and strictly
// more messages (each retransmission and duplicate costs wire traffic).
func TestDistributedFaultCostAboveClean(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := graph.RandomTree(50, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(g, 0, "dfs", r)
	if err != nil {
		t.Fatal(err)
	}
	clean := congest.NewTopo(g)
	if _, err := BuildDistributed(clean, []*graph.Tree{tr}, DistOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	faulty := congest.NewTopo(g, congest.WithFaults(&faults.Plan{Seed: 6, Drop: 0.2, Duplicate: 0.1}))
	if _, err := BuildDistributed(faulty, []*graph.Tree{tr}, DistOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if faulty.Rounds() < clean.Rounds() {
		t.Fatalf("faulty rounds %d < clean %d", faulty.Rounds(), clean.Rounds())
	}
	if faulty.Messages() <= clean.Messages() {
		t.Fatalf("faulty messages %d <= clean %d despite retransmissions", faulty.Messages(), clean.Messages())
	}
}

// TestDistributedMultiTreeUnderFaults builds several trees in parallel under
// a lossy plan; every scheme must still match its centralized reference.
func TestDistributedMultiTreeUnderFaults(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 80, r)
	if err != nil {
		t.Fatal(err)
	}
	var trees []*graph.Tree
	for _, root := range []int{0, 7, 19} {
		tr, err := graph.SpanningTree(g, root, "bfs", r)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	sim := congest.NewTopo(g, congest.WithFaults(&faults.Plan{Seed: 3, Drop: 0.1, Duplicate: 0.1}))
	res, err := BuildDistributed(sim, trees, DistOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j, tr := range trees {
		RequireSchemesEqual(t, res.Schemes[j], BuildCentralized(tr))
	}
}

// TestDistributedLossyBudgetErrors: once the retry budget is gone, a lost
// pointer-jumping or local-DFS message breaks an invariant the later phases
// rely on. The build must report that as an error, never panic: both the
// sizes-down convergecast check and the missing shift seed are reached.
func TestDistributedLossyBudgetErrors(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 80, r)
	if err != nil {
		t.Fatal(err)
	}
	var trees []*graph.Tree
	for _, root := range []int{0, 7, 19} {
		tr, err := graph.SpanningTree(g, root, "bfs", r)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{7, "convergecast size"},
		{5, "has no shift seed"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			plan := &faults.Plan{Seed: tc.seed, Drop: 0.05, RetryBudget: -1}
			sim := congest.NewTopo(g, congest.WithFaults(plan))
			_, err := BuildDistributed(sim, trees, DistOptions{Seed: 2})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("lossy build: err=%v, want one mentioning %q", err, tc.want)
			}
			if sim.FaultCounters().Lost == 0 {
				t.Fatal("the plan lost no message")
			}
		})
	}
}

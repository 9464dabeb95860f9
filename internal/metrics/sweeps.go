package metrics

import (
	"fmt"
	"math/rand"

	"lowmemroute/internal/baseline"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/core"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/treeroute"
)

// MemoryPoint is one point of the memory-vs-k sweep (experiment E3): the
// paper's Table 1 penultimate line shows memory shrinking with k down to
// polylog while the EN16b baseline stays at Ω(√n).
type MemoryPoint struct {
	K            int
	PaperPeak    int64
	PaperAvg     float64
	BaselinePeak int64
	BaselineAvg  float64
	PaperTable   int
	PaperLabel   int
}

// SweepMemoryVsK measures per-vertex peak memory of the paper's scheme and
// the EN16b-style baseline for each k.
func SweepMemoryVsK(family graph.Family, n int, ks []int, seed int64) ([]MemoryPoint, error) {
	topo, err := graph.GenerateCSR(family, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	var out []MemoryPoint
	for _, k := range ks {
		simP := congest.NewTopo(topo)
		s, err := core.Build(simP, core.Options{K: k, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("metrics: memory sweep k=%d: %w", k, err)
		}
		simB := congest.NewTopo(topo)
		if _, err := baseline.BuildEN16b(simB, baseline.Options{K: k, Seed: seed}); err != nil {
			return nil, fmt.Errorf("metrics: memory sweep baseline k=%d: %w", k, err)
		}
		out = append(out, MemoryPoint{
			K:            k,
			PaperPeak:    simP.PeakMemory(),
			PaperAvg:     simP.AvgPeakMemory(),
			BaselinePeak: simB.PeakMemory(),
			BaselineAvg:  simB.AvgPeakMemory(),
			PaperTable:   s.MaxTableWords(),
			PaperLabel:   s.MaxLabelWords(),
		})
	}
	return out, nil
}

// RoundsPoint is one point of the rounds-vs-n sweep (experiment E4),
// checking the Õ(√n + D) round scaling of Theorem 2.
type RoundsPoint struct {
	N        int
	D        int
	Height   int // tree height (>> D on deep trees)
	Rounds   int64
	Messages int64
	PeakMem  int64
}

// SweepTreeRoundsVsN builds the paper's tree routing on deep DFS spanning
// trees of well-connected graphs of growing size.
func SweepTreeRoundsVsN(family graph.Family, ns []int, seed int64) ([]RoundsPoint, error) {
	var out []RoundsPoint
	for _, n := range ns {
		r := rand.New(rand.NewSource(seed))
		topo, err := graph.GenerateCSR(family, n, r)
		if err != nil {
			return nil, err
		}
		tree, err := graph.SpanningTree(topo, 0, "dfs", r)
		if err != nil {
			return nil, err
		}
		sim := congest.NewTopo(topo)
		if _, err := treeroute.BuildDistributed(sim, []*graph.Tree{tree}, treeroute.DistOptions{Seed: seed}); err != nil {
			return nil, fmt.Errorf("metrics: rounds sweep n=%d: %w", n, err)
		}
		out = append(out, RoundsPoint{
			N:        n,
			D:        sim.Diameter(),
			Height:   tree.Height(),
			Rounds:   sim.Rounds(),
			Messages: sim.Messages(),
			PeakMem:  sim.PeakMemory(),
		})
	}
	return out, nil
}

// MultiTreePoint is one point of the multi-tree experiment (E6, the second
// assertion of Theorem 2): building s trees in parallel with the adjusted
// q = 1/√(sn) and random start offsets versus building them one at a time.
type MultiTreePoint struct {
	Trees           int
	ParallelRounds  int64
	SequentialSum   int64
	ParallelPeakMem int64
}

// RunMultiTree measures parallel versus sequential construction of s
// SSSP trees rooted at random vertices of one network.
func RunMultiTree(family graph.Family, n int, trees []int, seed int64) ([]MultiTreePoint, error) {
	r := rand.New(rand.NewSource(seed))
	topo, err := graph.GenerateCSR(family, n, r)
	if err != nil {
		return nil, err
	}
	var out []MultiTreePoint
	for _, s := range trees {
		var ts []*graph.Tree
		for j := 0; j < s; j++ {
			tree, err := graph.SpanningTree(topo, r.Intn(n), "sssp", r)
			if err != nil {
				return nil, err
			}
			ts = append(ts, tree)
		}
		// Parallel: one simulator, all trees at once.
		simPar := congest.NewTopo(topo)
		if _, err := treeroute.BuildDistributed(simPar, ts, treeroute.DistOptions{Seed: seed}); err != nil {
			return nil, fmt.Errorf("metrics: multi-tree parallel s=%d: %w", s, err)
		}
		// Sequential: one build per tree, rounds summed.
		var seq int64
		for _, tree := range ts {
			sim := congest.NewTopo(topo)
			if _, err := treeroute.BuildDistributed(sim, []*graph.Tree{tree}, treeroute.DistOptions{Seed: seed}); err != nil {
				return nil, fmt.Errorf("metrics: multi-tree sequential: %w", err)
			}
			seq += sim.Rounds()
		}
		out = append(out, MultiTreePoint{
			Trees:           s,
			ParallelRounds:  simPar.Rounds(),
			SequentialSum:   seq,
			ParallelPeakMem: simPar.PeakMemory(),
		})
	}
	return out, nil
}

// HopsetPoint is one point of the hopset ablation (E7, Theorem 1 / Lemma 2):
// hopset size, arboricity and the Bellman-Ford iteration count with and
// without the hopset.
type HopsetPoint struct {
	Kappa       int
	Edges       int
	Arboricity  int
	IterWith    int
	IterWithout int
	// MeasuredBeta is the empirical hop bound at ε=0.05 over sampled
	// virtual pairs (Theorem 1's β, measured rather than closed-form).
	MeasuredBeta int
}

// RunHopsetAblation builds hopsets with different hierarchy depths over the
// same virtual graph and compares set-source Bellman-Ford convergence with
// and without them.
func RunHopsetAblation(family graph.Family, n int, frac float64, kappas []int, seed int64) ([]HopsetPoint, error) {
	r := rand.New(rand.NewSource(seed))
	topo, err := graph.GenerateCSR(family, n, r)
	if err != nil {
		return nil, err
	}
	var members []int
	for v := 0; v < topo.N(); v++ {
		if r.Float64() < frac {
			members = append(members, v)
		}
	}
	if len(members) == 0 {
		members = []int{0}
	}
	// A small hop radius keeps the virtual graph sparse, so plain
	// Bellman-Ford over E' needs many iterations and the hopset's
	// acceleration is visible (with B near the diameter the virtual graph
	// is almost complete and everything converges in one step).
	b := 3
	var out []HopsetPoint
	for _, kappa := range kappas {
		vg, err := hopset.NewVirtualGraph(topo, members, b)
		if err != nil {
			return nil, err
		}
		ex := hopset.NewExplorer(congest.NewTopo(topo))
		hs, err := hopset.Build(ex, vg, hopset.Options{Kappa: kappa, Seed: seed})
		if err != nil {
			return nil, err
		}
		seeds := []hopset.Source{{Root: -1, At: members[0], Dist: 0}}
		with, err := hopset.NewLimitedBF(ex, vg, hs).Run(seeds, nil, 0)
		if err != nil {
			return nil, err
		}
		// Without the hopset: same machinery over an empty hopset.
		none, err := hopset.NewVirtualGraph(topo, nil, b)
		if err != nil {
			return nil, err
		}
		empty, err := hopset.Build(hopset.NewExplorer(congest.NewTopo(topo)), none, hopset.Options{Kappa: kappa, Seed: seed})
		if err != nil {
			return nil, err
		}
		without, err := hopset.NewLimitedBF(hopset.NewExplorer(congest.NewTopo(topo)), vg, empty).Run(seeds, nil, 0)
		if err != nil {
			return nil, err
		}
		beta, _, err := hopset.MeasureHopbound(vg, hs, 0.05, 40, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return nil, err
		}
		out = append(out, HopsetPoint{
			Kappa:        kappa,
			Edges:        hs.Size(),
			Arboricity:   hs.MaxOutDegree(),
			IterWith:     with,
			IterWithout:  without,
			MeasuredBeta: beta,
		})
	}
	return out, nil
}

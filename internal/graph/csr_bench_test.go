package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

var benchCSR *CSR

// BenchmarkGenerateCSRGrid times laying out a square grid in place (see
// lattice) at n = 400, 4,096, 16,384 and 65,536: the 20×20 grid is the
// set-up of the build-grid400-k3 and serve-grid400-k3 bench workloads, the
// 256×256 grid that of explore-grid64k. The 256×256 grid allocates about
// 2.1 MB per op, the CSR and 2 bytes of weight ids per edge
// (TestGenerateCSRGridAllocBudget pins it). Run at -cpu 1,2, it measures
// latticeParallelMin's crossover (DESIGN.md §15).
func BenchmarkGenerateCSRGrid(b *testing.B) {
	for _, n := range []int{400, 1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := GenerateCSR(FamilyGrid, n, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				benchCSR = c
			}
		})
	}
}

// BenchmarkGenerateCSRErdosRenyi times streaming the n=192 Erdős–Rényi
// instance into a CSR: the set-up of the build-er192-k2 bench workload.
func BenchmarkGenerateCSRErdosRenyi(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := GenerateCSR(FamilyErdosRenyi, 192, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		benchCSR = c
	}
}

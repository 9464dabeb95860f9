package graph

import (
	"math/rand"
	"testing"
)

var benchCSR *CSR

// BenchmarkGenerateCSRGrid times streaming a 256×256 grid into a CSR: the
// set-up of the explore-grid64k bench workload.
func BenchmarkGenerateCSRGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := GenerateCSR(FamilyGrid, 1<<16, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		benchCSR = c
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

package metrics

import (
	"fmt"
	"testing"

	"lowmemroute/internal/graph"
)

// TestHopsetAblationGolden pins E7's grid rows row by row: the hopset's
// edges and arboricity, the measured hop bound, and the Bellman–Ford
// iterations with and without the hopset.
func TestHopsetAblationGolden(t *testing.T) {
	pts, err := RunHopsetAblation(graph.FamilyGrid, 256, 0.25, []int{2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"kappa=2 edges=498 arboricity=14 beta=4 with=5 without=11",
		"kappa=3 edges=471 arboricity=15 beta=2 with=5 without=11",
		"kappa=4 edges=609 arboricity=15 beta=3 with=5 without=11",
	}
	if len(pts) != len(want) {
		t.Fatalf("%d rows, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		got := fmt.Sprintf("kappa=%d edges=%d arboricity=%d beta=%d with=%d without=%d",
			p.Kappa, p.Edges, p.Arboricity, p.MeasuredBeta, p.IterWith, p.IterWithout)
		if got != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

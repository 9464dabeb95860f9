package metrics

import (
	"fmt"
	"strings"
	"testing"

	"lowmemroute/internal/graph"
)

// TestTablesGolden pins every deterministic column of the Table 1 and
// Table 2 rows that BenchmarkTable1/BenchmarkTable2 regenerate, at full
// precision; any change to a simulated quantity, an oracle distance or a
// scheme's sizes fails here, without a benchmark run. The paper rows run
// twice, the second time with the engine at 4 execution shards, and must
// match the same golden line: the shard count is unobservable.
func TestTablesGolden(t *testing.T) {
	var got []string
	row := func(r SchemeRow) string {
		return fmt.Sprintf("t1 %s k=%d D=%v rounds=%v msgs=%v table=%v label=%v peak=%v avg=%v stretch=%v/%v/%v/%v",
			r.Scheme, r.K, r.D, r.Rounds, r.Messages, r.TableWords, r.LabelWords,
			r.PeakMem, r.AvgMem, r.Stretch.Max, r.Stretch.Avg, r.Stretch.Pairs, r.Stretch.Failures)
	}
	paper := map[int]string{}
	for _, k := range []int{2, 3} {
		rows, err := RunTable1(Table1Config{
			Family: graph.FamilyErdosRenyi, N: 192, K: k, Seed: 1, Pairs: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			got = append(got, row(r))
			if r.Scheme == "paper" {
				paper[k] = row(r)
			}
		}
	}
	for _, k := range []int{2, 3} {
		rows, err := RunTable1(Table1Config{
			Family: graph.FamilyErdosRenyi, N: 192, K: k, Seed: 1, Pairs: 100,
			Schemes: []string{"paper"}, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sharded := row(rows[0]); sharded != paper[k] {
			t.Errorf("k=%d paper row at 4 shards:\n got %s\nwant %s", k, sharded, paper[k])
		}
	}
	rows, err := RunTable2(Table2Config{Family: graph.FamilyErdosRenyi, N: 512, Seed: 2, Pairs: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		got = append(got, fmt.Sprintf("t2 %s kind=%s height=%v D=%v rounds=%v msgs=%v table=%v label=%v header=%v peak=%v avg=%v exact=%v",
			r.Scheme, r.TreeKind, r.TreeHeight, r.D, r.Rounds, r.Messages, r.TableWords, r.LabelWords,
			r.HeaderWords, r.PeakMem, r.AvgMem, r.Exact))
	}
	want := strings.Split(strings.TrimSpace(tablesGolden), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

const tablesGolden = `
t1 tz k=2 D=0 rounds=0 msgs=0 table=405 label=13 peak=0 avg=0 stretch=2.7142857142857144/1.2682777553088027/99/0
t1 lp15 k=2 D=6 rounds=358 msgs=356381 table=405 label=13 peak=418 avg=155.63020833333334 stretch=2.7142857142857144/1.2668347538658011/99/0
t1 en16b k=2 D=6 rounds=85742 msgs=117806 table=890 label=18 peak=1506 avg=673.3229166666666 stretch=2.7142857142857144/1.2682777553088027/99/0
t1 paper k=2 D=6 rounds=13774 msgs=1847893 table=405 label=13 peak=1152 avg=456.1614583333333 stretch=2.7142857142857144/1.2668347538658011/99/0
t1 tz k=3 D=0 rounds=0 msgs=0 table=150 label=20 peak=0 avg=0 stretch=2.9473684210526314/1.3396117192258774/99/0
t1 lp15 k=3 D=6 rounds=253 msgs=261070 table=150 label=20 peak=170 avg=96.859375 stretch=2.9473684210526314/1.338168717782876/99/0
t1 en16b k=3 D=6 rounds=40987 msgs=78800 table=334 label=27 peak=826 avg=381.5416666666667 stretch=2.9473684210526314/1.3396117192258774/99/0
t1 paper k=3 D=6 rounds=11001 msgs=1684285 table=150 label=20 peak=473 avg=278.4427083333333 stretch=2.9473684210526314/1.338168717782876/99/0
t2 en16b-tree kind=dfs height=50 D=6 rounds=188 msgs=13442 table=12 label=7 header=4 peak=239 avg=27.298828125 exact=true
t2 tz-tree kind=dfs height=50 D=0 rounds=0 msgs=0 table=4 label=5 header=0 peak=0 avg=0 exact=true
t2 paper-tree kind=dfs height=50 D=6 rounds=1374 msgs=404018 table=4 label=5 header=0 peak=26 avg=11.84375 exact=true
`

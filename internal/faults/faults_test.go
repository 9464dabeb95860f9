package faults

import (
	"math"
	"reflect"
	"testing"
)

func TestEmptyPlanCompilesToNil(t *testing.T) {
	if Compile(nil, 10) != nil {
		t.Fatal("nil plan must compile to nil")
	}
	if Compile(&Plan{Seed: 7, RetryBudget: 3}, 10) != nil {
		t.Fatal("plan with only seed/budget set injects nothing and must compile to nil")
	}
	if c := Compile(&Plan{Drop: 0.1}, 10); c == nil {
		t.Fatal("plan with drop > 0 must compile")
	}
}

func TestBudgetDefaults(t *testing.T) {
	if got := Compile(&Plan{Drop: 0.1}, 4).Budget(); got != DefaultRetryBudget {
		t.Fatalf("default budget = %d, want %d", got, DefaultRetryBudget)
	}
	if got := Compile(&Plan{Drop: 0.1, RetryBudget: 3}, 4).Budget(); got != 3 {
		t.Fatalf("budget = %d, want 3", got)
	}
	if got := Compile(&Plan{Drop: 0.1, RetryBudget: -1}, 4).Budget(); got != 0 {
		t.Fatalf("negative budget = %d, want 0 (no retries)", got)
	}
}

func TestRollsDeterministicAndSeedSensitive(t *testing.T) {
	a := Compile(&Plan{Seed: 1, Drop: 0.5, Delay: 3, Duplicate: 0.5}, 8)
	b := Compile(&Plan{Seed: 1, Drop: 0.5, Delay: 3, Duplicate: 0.5}, 8)
	c := Compile(&Plan{Seed: 2, Drop: 0.5, Delay: 3, Duplicate: 0.5}, 8)
	sameDrop, diffDrop := 0, 0
	for link := int32(0); link < 8; link++ {
		for seq := uint64(0); seq < 64; seq++ {
			if a.DropRoll(link, seq, 0) != b.DropRoll(link, seq, 0) {
				t.Fatal("equal seeds must agree on every drop decision")
			}
			if a.DelayRoll(link, seq) != b.DelayRoll(link, seq) {
				t.Fatal("equal seeds must agree on every delay decision")
			}
			if a.DupRoll(link, seq) != b.DupRoll(link, seq) {
				t.Fatal("equal seeds must agree on every dup decision")
			}
			if a.DropRoll(link, seq, 0) == c.DropRoll(link, seq, 0) {
				sameDrop++
			} else {
				diffDrop++
			}
		}
	}
	if diffDrop == 0 {
		t.Fatal("different seeds produced identical drop patterns")
	}
	_ = sameDrop
}

func TestRollRatesApproximateProbabilities(t *testing.T) {
	c := Compile(&Plan{Seed: 42, Drop: 0.1, Delay: 4, Duplicate: 0.25}, 8)
	const trials = 20000
	drops, dups, delaySum := 0, 0, 0
	maxDelay := 0
	for seq := uint64(0); seq < trials; seq++ {
		if c.DropRoll(3, seq, 0) {
			drops++
		}
		if c.DupRoll(3, seq) {
			dups++
		}
		d := c.DelayRoll(3, seq)
		if d < 0 || d > 4 {
			t.Fatalf("delay roll %d outside [0, 4]", d)
		}
		if d > maxDelay {
			maxDelay = d
		}
		delaySum += d
	}
	if r := float64(drops) / trials; math.Abs(r-0.1) > 0.02 {
		t.Errorf("drop rate %.3f, want ~0.1", r)
	}
	if r := float64(dups) / trials; math.Abs(r-0.25) > 0.02 {
		t.Errorf("dup rate %.3f, want ~0.25", r)
	}
	if mean := float64(delaySum) / trials; math.Abs(mean-2.0) > 0.15 {
		t.Errorf("mean delay %.2f, want ~2.0 (uniform on [0,4])", mean)
	}
	if maxDelay != 4 {
		t.Errorf("max delay over %d trials = %d, want 4", trials, maxDelay)
	}
}

func TestCrashWindows(t *testing.T) {
	c := Compile(&Plan{Crashes: []Crash{
		{Vertex: 2, From: 10, Until: 20},
		{Vertex: 2, From: 50, Until: Forever},
		{Vertex: 5}, // forever from round 0
	}}, 8)
	cases := []struct {
		v             int
		round         int64
		down, forever bool
	}{
		{2, 9, false, false},
		{2, 10, true, false},
		{2, 19, true, false},
		{2, 20, false, false},
		{2, 50, true, true},
		{2, 1 << 40, true, true},
		{5, 0, true, true},
		{3, 0, false, false},
	}
	for _, tc := range cases {
		down, forever := c.Crashed(tc.v, tc.round)
		if down != tc.down || forever != tc.forever {
			t.Errorf("Crashed(%d, %d) = (%v, %v), want (%v, %v)",
				tc.v, tc.round, down, forever, tc.down, tc.forever)
		}
	}
}

func TestPartitionWindows(t *testing.T) {
	c := Compile(&Plan{Partitions: []Partition{
		{Members: []int{0, 1}, From: 5, Until: 15},
	}}, 6)
	if cut, _ := c.CutPair(0, 1, 10); cut {
		t.Error("same-side pair must not be cut")
	}
	if cut, _ := c.CutPair(0, 3, 4); cut {
		t.Error("pair cut before window opens")
	}
	cut, forever := c.CutPair(0, 3, 5)
	if !cut || forever {
		t.Errorf("CutPair(0, 3, 5) = (%v, %v), want (true, false)", cut, forever)
	}
	if cut, _ := c.CutPair(3, 1, 15); cut {
		t.Error("pair cut after window closes")
	}

	c = Compile(&Plan{Partitions: []Partition{{Members: []int{2}}}}, 6)
	cut, forever = c.CutPair(2, 0, 1000)
	if !cut || !forever {
		t.Errorf("unwindowed partition: CutPair = (%v, %v), want (true, true)", cut, forever)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("drop=0.05,delay=2,dup=0.01,seed=7,budget=4,crash=3,17,part=0,1,2")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		Seed: 7, Drop: 0.05, Delay: 2, Duplicate: 0.01, RetryBudget: 4,
		Crashes: []Crash{
			{Vertex: 3, From: 0, Until: Forever},
			{Vertex: 17, From: 0, Until: Forever},
		},
		Partitions: []Partition{{Members: []int{0, 1, 2}, From: 0, Until: Forever}},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("ParseSpec = %+v, want %+v", p, want)
	}
}

func TestParseSpecWindows(t *testing.T) {
	p, err := ParseSpec("crash=5@100-200")
	if err != nil {
		t.Fatal(err)
	}
	want := []Crash{{Vertex: 5, From: 100, Until: 200}}
	if !reflect.DeepEqual(p.Crashes, want) {
		t.Fatalf("crashes = %+v, want %+v", p.Crashes, want)
	}
	// An empty until never ends: down from round 3 on, and partitioned from
	// round 5 on.
	p, err = ParseSpec("crash=1@3-,part=2@5-,3")
	if err != nil {
		t.Fatal(err)
	}
	wantPlan := &Plan{
		Crashes:    []Crash{{Vertex: 1, From: 3, Until: Forever}},
		Partitions: []Partition{{Members: []int{2, 3}, From: 5, Until: Forever}},
	}
	if !reflect.DeepEqual(p, wantPlan) {
		t.Fatalf("open-ended windows parsed to %+v, want %+v", p, wantPlan)
	}
}

// TestPlanStringOpenEndedWindows: a window that starts after round 0 and
// never ends renders as v@from-, so String re-parses to the plan that runs,
// not to one that is down from round 0.
func TestPlanStringOpenEndedWindows(t *testing.T) {
	for _, tc := range []struct {
		plan *Plan
		spec string
	}{
		{&Plan{Crashes: []Crash{{Vertex: 1, From: 3, Until: Forever}}}, "crash=1@3-"},
		{&Plan{Crashes: []Crash{{Vertex: 1, From: 0, Until: Forever}}}, "crash=1"},
		{&Plan{Partitions: []Partition{{Members: []int{2, 3}, From: 5, Until: Forever}}}, "part=2@5-,3"},
		{&Plan{Partitions: []Partition{{Members: []int{2, 3}, From: 5, Until: 9}}}, "part=2@5-9,3"},
	} {
		if got := tc.plan.String(); got != tc.spec {
			t.Errorf("String(%+v) = %q, want %q", tc.plan, got, tc.spec)
		}
		back, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
		}
		if !reflect.DeepEqual(back, tc.plan) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, back, tc.plan)
		}
	}
	// A window whose Until is at or before its From never ends either
	// (Compile reads it as Forever): it renders by its effective window.
	p := &Plan{Crashes: []Crash{{Vertex: 4, From: 7, Until: 2}}}
	if got := p.String(); got != "crash=4@7-" {
		t.Errorf("String of an inverted window = %q, want crash=4@7-", got)
	}
}

func TestParseSpecEmptyAndErrors(t *testing.T) {
	p, err := ParseSpec("")
	if err != nil || !p.Empty() {
		t.Fatalf("empty spec: plan %+v, err %v", p, err)
	}
	for _, bad := range []string{
		"drop=1.5", "drop=x", "delay=-1", "dup=2", "seed=-3", "budget=x",
		"crash=x", "crash=1@5", "crash=1@9-3", "crash=1@-", "crash=1@5--1", "frob=1", "3",
		"drop=NaN", "dup=nan",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestPlanString(t *testing.T) {
	if got := (&Plan{}).String(); got != "none" {
		t.Fatalf("empty plan String = %q", got)
	}
	spec := "drop=0.05,delay=2,seed=7,crash=3,crash=5@100-200"
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// String must round-trip through ParseSpec to an equal plan.
	p2, err := ParseSpec(p.String())
	if err != nil {
		t.Fatalf("round trip parse of %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip: %+v != %+v", p, p2)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Dropped: 1, Retried: 2, Lost: 3, Duplicated: 4, DelayRounds: 5, Discarded: 6, RetryWords: 7}
	b := a
	a.Add(b)
	want := Counters{Dropped: 2, Retried: 4, Lost: 6, Duplicated: 8, DelayRounds: 10, Discarded: 12, RetryWords: 14}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
	if !a.Any() {
		t.Fatal("non-zero counters must report Any")
	}
	if (Counters{}).Any() {
		t.Fatal("zero counters must not report Any")
	}
}

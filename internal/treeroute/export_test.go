package treeroute

import (
	"slices"
	"testing"
)

// RequireSchemesEqual fails t unless dist holds exactly central's tables
// and labels, member by member. Exported for the external test package.
func RequireSchemesEqual(t *testing.T, dist, central *Scheme) {
	t.Helper()
	if dist.Tree != central.Tree {
		t.Fatal("schemes are over different trees")
	}
	if len(dist.Tables) != len(central.Tables) || len(dist.Labels) != len(central.Labels) {
		t.Fatalf("member counts differ: %d/%d vs %d/%d",
			len(dist.Tables), len(dist.Labels), len(central.Tables), len(central.Labels))
	}
	for i, want := range central.Tables {
		if got := dist.Tables[i]; got != want {
			t.Fatalf("table of %d: distributed %+v centralized %+v", dist.Tree.MemberAt(i), got, want)
		}
	}
	for i, want := range central.Labels {
		if got := dist.Labels[i]; got.In != want.In || !slices.Equal(got.Light, want.Light) {
			t.Fatalf("label of %d: distributed %+v centralized %+v", dist.Tree.MemberAt(i), got, want)
		}
	}
}

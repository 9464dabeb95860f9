package treeroute

import (
	"fmt"
	"math/rand"

	"lowmemroute/internal/graph"
)

// VerifyExact routes every given (src, dst) pair with route and checks the
// walk is exactly the unique tree path of t: correct endpoints, every hop a
// tree edge, and hop count equal to the tree distance (stretch 1). route
// has the RouteAppend shape: it appends the walked path, both endpoints
// included, to the buffer it is given.
func VerifyExact(route func(src, dst int, path []int) ([]int, error), t *graph.Tree, pairs [][2]int) error {
	var path []int
	for _, p := range pairs {
		src, dst := p[0], p[1]
		var err error
		path, err = route(src, dst, path[:0])
		if err != nil {
			return err
		}
		if len(path) == 0 || path[0] != src {
			return fmt.Errorf("treeroute: path %d->%d starts at %v, want %d", src, dst, path, src)
		}
		if last := path[len(path)-1]; last != dst {
			return fmt.Errorf("treeroute: path %d->%d ends at %d", src, dst, last)
		}
		for i := 1; i < len(path); i++ {
			a, b := path[i-1], path[i]
			if t.Parent(a) != b && t.Parent(b) != a {
				return fmt.Errorf("treeroute: hop %d->%d is not a tree edge (routing %d->%d)", a, b, src, dst)
			}
		}
		if got, want := len(path)-1, t.TreeDistHops(src, dst); got != want {
			return fmt.Errorf("treeroute: %d->%d took %d hops, tree distance is %d", src, dst, got, want)
		}
	}
	return nil
}

// AllPairs enumerates every ordered pair of tree members (quadratic; for
// small trees in tests).
func AllPairs(t *graph.Tree) [][2]int {
	ms := t.Members()
	out := make([][2]int, 0, len(ms)*len(ms))
	for _, u := range ms {
		for _, v := range ms {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// SamplePairs draws k uniform ordered pairs of tree members.
func SamplePairs(t *graph.Tree, k int, r *rand.Rand) [][2]int {
	ms := t.Members()
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, [2]int{ms[r.Intn(len(ms))], ms[r.Intn(len(ms))]})
	}
	return out
}

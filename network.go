package lowmemroute

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"lowmemroute/internal/graph"
)

// Network is a weighted undirected communication network. It holds an edge
// builder whose edges every algorithm reads as the frozen topology (see
// freeze), which the network caches until the next AddNode or AddLink. Its
// methods are safe for concurrent use; a query reads the links added before
// it started.
type Network struct {
	mu   sync.Mutex
	b    *graph.CSRBuilder // the network's links; Build freezes them
	topo *graph.CSR        // b frozen; nil after an edit until the next freeze
}

// frozenNetwork returns a network whose links are topo's.
func frozenNetwork(topo *graph.CSR) *Network {
	return &Network{b: topo.Thaw(), topo: topo}
}

// freeze returns the network's topology as an immutable CSR, the only form
// the simulator and the centralized algorithms read. The first call after
// an edit freezes the builder in O(n+m); later calls return the same CSR.
func (n *Network) freeze() *graph.CSR {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.topo == nil {
		n.topo = n.b.Build()
	}
	return n.topo
}

// edit returns the builder for an edit and drops the frozen topology. The
// builder keeps the last frozen topology's arcs in order, so an added link
// lands after them. The caller holds n.mu.
func (n *Network) edit() *graph.CSRBuilder {
	n.topo = nil
	return n.b
}

// NewNetwork returns a network with n isolated nodes (ids 0..n-1); a
// negative n gives an empty network.
func NewNetwork(n int) *Network {
	return &Network{b: graph.NewCSRBuilder(n)}
}

// AddNode appends a node and returns its id.
func (n *Network) AddNode() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.edit().AddVertex()
}

// AddLink inserts a bidirectional link of the given positive weight.
// Parallel links are kept.
func (n *Network) AddLink(u, v int, weight float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.edit().AddEdge(u, v, weight)
}

// MustAddLink is AddLink that panics on error, for networks built from
// static, known-good descriptions.
func (n *Network) MustAddLink(u, v int, weight float64) {
	if err := n.AddLink(u, v, weight); err != nil {
		panic(err)
	}
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.b.N()
}

// Links returns the number of links.
func (n *Network) Links() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.b.M()
}

// Connected reports whether the network is connected.
func (n *Network) Connected() bool { return graph.Connected(n.freeze()) }

// ShortestPath returns the exact shortest-path distance between two nodes
// (for evaluating routing stretch). Unreachable pairs, and endpoints outside
// [0, Nodes()), return +Inf.
func (n *Network) ShortestPath(u, v int) float64 {
	topo := n.freeze()
	if u < 0 || u >= topo.N() || v < 0 || v >= topo.N() {
		return math.Inf(1)
	}
	d := graph.Dijkstra(topo, u).Dist[v]
	if d == graph.Infinity {
		return math.Inf(1)
	}
	return d
}

// Family names a built-in topology generator.
type Family = graph.Family

// Built-in topology families for Generate.
const (
	ErdosRenyi Family = graph.FamilyErdosRenyi
	Geometric  Family = graph.FamilyGeometric
	Grid       Family = graph.FamilyGrid
	Torus      Family = graph.FamilyTorus
	PowerLaw   Family = graph.FamilyPowerLaw
	Hypercube  Family = graph.FamilyHypercube
)

// Generate builds a connected n-node instance of a named topology family.
func Generate(f Family, n int, seed int64) (*Network, error) {
	topo, err := graph.GenerateCSR(f, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return frozenNetwork(topo), nil
}

// Quantize returns a copy of the network with every link weight rounded up
// to the nearest power of (1+eps). Quantized weights fit in
// O(log log Λ + log 1/ε) bits - the paper's Section 2 adaptation to
// standard O(log n)-bit CONGEST messages - and distort any routing scheme's
// stretch by at most a (1+eps) factor.
func (n *Network) Quantize(eps float64) *Network {
	return frozenNetwork(n.freeze().Quantize(eps))
}

// AspectRatio returns Λ, the ratio of the heaviest to the lightest link.
func (n *Network) AspectRatio() float64 { return graph.AspectRatio(n.freeze()) }

// Tree is a rooted tree embedded in a network: every tree edge must be a
// network link.
type Tree struct {
	t *graph.Tree
}

// Root returns the tree root.
func (t *Tree) Root() int { return t.t.Root }

// Size returns the number of tree members.
func (t *Tree) Size() int { return t.t.Size() }

// Height returns the tree height in edges.
func (t *Tree) Height() int { return t.t.Height() }

// Member reports whether node v belongs to the tree.
func (t *Tree) Member(v int) bool { return t.t.Member(v) }

// Parent returns v's tree parent, or -1 for the root and non-members.
func (t *Tree) Parent(v int) int { return t.t.Parent(v) }

// SpanningTree extracts a spanning tree of a connected network. kind is
// "bfs" (shallow), "sssp" (shortest-path tree) or "dfs" (deep - the regime
// where the paper's tree routing shines, since its round complexity depends
// on the network diameter rather than the tree height). A root outside
// [0, Nodes()) is an error.
func (n *Network) SpanningTree(root int, kind string, seed int64) (*Tree, error) {
	t, err := graph.SpanningTree(n.freeze(), root, kind, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &Tree{t: t}, nil
}

// TreeFromParents builds a tree from explicit parent pointers: parents[v]
// is v's parent, -1 for the root and for nodes outside the tree. Every
// (child, parent) pair must be a network link.
func (n *Network) TreeFromParents(root int, parents []int) (*Tree, error) {
	topo := n.freeze()
	if len(parents) != topo.N() {
		return nil, fmt.Errorf("lowmemroute: parents length %d != nodes %d", len(parents), topo.N())
	}
	t, err := graph.NewTree(root, parents)
	if err != nil {
		return nil, err
	}
	for _, v := range t.Members() {
		if p := t.Parent(v); p != graph.NoVertex && !graph.TopoHasEdge(topo, v, p) {
			return nil, fmt.Errorf("lowmemroute: tree edge {%d,%d} is not a network link", v, p)
		}
	}
	return &Tree{t: t}, nil
}

package lowmemroute

import (
	"fmt"
	"math"
	"math/rand"

	"lowmemroute/internal/graph"
)

// Network is a weighted undirected communication network. It is built link
// by link; every algorithm runs on a frozen copy (see freeze).
type Network struct {
	g *graph.Graph
}

// freeze returns the network's current topology as an immutable CSR, the
// only form the simulator and the centralized algorithms read. It costs
// O(n+m), which every query below already spends on the algorithm itself.
func (n *Network) freeze() *graph.CSR { return graph.FromGraph(n.g) }

// NewNetwork returns a network with n isolated nodes (ids 0..n-1).
func NewNetwork(n int) *Network {
	return &Network{g: graph.New(n)}
}

// AddNode appends a node and returns its id.
func (n *Network) AddNode() int { return n.g.AddVertex() }

// AddLink inserts a bidirectional link of the given positive weight.
func (n *Network) AddLink(u, v int, weight float64) error {
	return n.g.AddEdge(u, v, weight)
}

// MustAddLink is AddLink that panics on error, for networks built from
// static, known-good descriptions.
func (n *Network) MustAddLink(u, v int, weight float64) {
	n.g.MustAddEdge(u, v, weight)
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return n.g.N() }

// Links returns the number of links.
func (n *Network) Links() int { return n.g.M() }

// Connected reports whether the network is connected.
func (n *Network) Connected() bool { return graph.Connected(n.freeze()) }

// ShortestPath returns the exact shortest-path distance between two nodes
// (for evaluating routing stretch). Unreachable pairs, and endpoints outside
// [0, Nodes()), return +Inf.
func (n *Network) ShortestPath(u, v int) float64 {
	if u < 0 || u >= n.Nodes() || v < 0 || v >= n.Nodes() {
		return math.Inf(1)
	}
	d := graph.Dijkstra(n.freeze(), u).Dist[v]
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
	g, err := graph.Generate(f, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// Quantize returns a copy of the network with every link weight rounded up
// to the nearest power of (1+eps). Quantized weights fit in
// O(log log Λ + log 1/ε) bits - the paper's Section 2 adaptation to
// standard O(log n)-bit CONGEST messages - and distort any routing scheme's
// stretch by at most a (1+eps) factor.
func (n *Network) Quantize(eps float64) *Network {
	return &Network{g: n.g.QuantizeWeights(eps)}
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
	if len(parents) != n.g.N() {
		return nil, fmt.Errorf("lowmemroute: parents length %d != nodes %d", len(parents), n.g.N())
	}
	t, err := graph.NewTree(root, parents)
	if err != nil {
		return nil, err
	}
	for _, v := range t.Members() {
		if p := t.Parent(v); p != graph.NoVertex && !n.g.HasEdge(v, p) {
			return nil, fmt.Errorf("lowmemroute: tree edge {%d,%d} is not a network link", v, p)
		}
	}
	return &Tree{t: t}, nil
}

// Package graphs provides the small amount of graph machinery the
// lower-bound construction needs: undirected conflict graphs over process
// IDs and an independent-set routine with the Turán guarantee (Theorem 2 of
// the paper: a graph with average degree d has an independent set of at
// least ceil(|V|/(d+1)) vertices).
package graphs

import (
	"slices"

	"priceadaptive/internal/tso"
)

// Graph is an undirected graph whose vertices are process IDs. Self-loops
// and duplicate edges are ignored. Internally a vertex is its position in
// the sorted vertex list, and adjacency is a list of positions per vertex.
type Graph struct {
	verts []tso.ProcID       // sorted, unique
	pos   map[tso.ProcID]int // vertex -> position in verts
	adj   [][]int            // adj[i]: positions of the neighbours of verts[i]
	edges int
}

// New returns a graph over the given vertex set.
func New(vertices []tso.ProcID) *Graph {
	verts := slices.Clone(vertices)
	slices.Sort(verts)
	verts = slices.Compact(verts)
	g := &Graph{verts: verts, pos: make(map[tso.ProcID]int, len(verts)), adj: make([][]int, len(verts))}
	for i, v := range verts {
		g.pos[v] = i
	}
	return g
}

// AddEdge inserts the undirected edge {u, v}. Endpoints outside the vertex
// set and self-loops are ignored, matching the construction's habit of
// "adding an edge {p, q} if such a q exists".
func (g *Graph) AddEdge(u, v tso.ProcID) {
	iu, ok := g.pos[u]
	if !ok || u == v {
		return
	}
	iv, ok := g.pos[v]
	if !ok || slices.Contains(g.adj[iu], iv) {
		return
	}
	g.adj[iu] = append(g.adj[iu], iv)
	g.adj[iv] = append(g.adj[iv], iu)
	g.edges++
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.verts) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the degree of v.
func (g *Graph) Degree(v tso.ProcID) int {
	i, ok := g.pos[v]
	if !ok {
		return 0
	}
	return len(g.adj[i])
}

// AverageDegree returns 2|E|/|V|, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.verts) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.verts))
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v tso.ProcID) bool {
	iu, ok := g.pos[u]
	if !ok {
		return false
	}
	iv, ok := g.pos[v]
	return ok && slices.Contains(g.adj[iu], iv)
}

// TuranBound returns the independent-set size guaranteed by Turán's theorem:
// ceil(|V| / (d+1)) where d is the average degree.
func (g *Graph) TuranBound() int {
	n := len(g.verts)
	if n == 0 {
		return 0
	}
	// ceil(n / (d+1)) with d = 2e/n computed in integers:
	// n / (2e/n + 1) = n^2 / (2e + n).
	num := n * n
	den := 2*g.edges + n
	return (num + den - 1) / den
}

// IndependentSet returns an independent set of size at least TuranBound(),
// computed by the classic greedy minimum-degree argument (repeatedly pick a
// minimum-degree vertex and delete its neighbourhood). The result is sorted
// ascending. Ties are broken by smallest ID, so the routine is
// deterministic.
func (g *Graph) IndependentSet() []tso.ProcID {
	n := len(g.verts)
	deg := make([]int, n)
	alive := make([]bool, n)
	chosen := make([]bool, n)
	for i := range deg {
		deg[i] = len(g.adj[i])
		alive[i] = true
	}
	remaining := n
	remove := func(i int) {
		alive[i] = false
		remaining--
		for _, w := range g.adj[i] {
			if alive[w] {
				deg[w]--
			}
		}
	}
	for remaining > 0 {
		// Positions ascend with IDs, so the first minimum is the smallest ID.
		best := -1
		for i := range deg {
			if alive[i] && (best < 0 || deg[i] < deg[best]) {
				best = i
			}
		}
		chosen[best] = true
		remove(best)
		for _, u := range g.adj[best] {
			if alive[u] {
				remove(u)
			}
		}
	}
	var out []tso.ProcID
	for i, c := range chosen {
		if c {
			out = append(out, g.verts[i])
		}
	}
	return out
}

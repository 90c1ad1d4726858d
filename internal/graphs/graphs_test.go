package graphs

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"priceadaptive/internal/tso"
)

func ids(n int) []tso.ProcID {
	out := make([]tso.ProcID, n)
	for i := range out {
		out[i] = tso.ProcID(i)
	}
	return out
}

func TestEmptyGraph(t *testing.T) {
	g := New(nil)
	if g.NumVertices() != 0 || g.TuranBound() != 0 {
		t.Error("empty graph basics wrong")
	}
	if got := g.IndependentSet(); len(got) != 0 {
		t.Errorf("IndependentSet = %v, want empty", got)
	}
}

func TestEdgelessGraphIsFullyIndependent(t *testing.T) {
	g := New(ids(7))
	is := g.IndependentSet()
	if len(is) != 7 {
		t.Fatalf("independent set = %d, want 7", len(is))
	}
	if g.TuranBound() != 7 {
		t.Errorf("TuranBound = %d, want 7", g.TuranBound())
	}
}

func TestEdgeBasics(t *testing.T) {
	g := New(ids(4))
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self-loop ignored
	g.AddEdge(0, 9) // outside vertex set ignored
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge must be undirected")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Error("degrees wrong")
	}
	if got := g.AverageDegree(); got != 0.5 {
		t.Errorf("average degree = %v, want 0.5", got)
	}
}

func TestCompleteGraphIndependentSetIsSingleton(t *testing.T) {
	g := New(ids(5))
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddEdge(tso.ProcID(i), tso.ProcID(j))
		}
	}
	is := g.IndependentSet()
	if len(is) != 1 {
		t.Fatalf("independent set of K5 = %v, want singleton", is)
	}
	if g.TuranBound() != 1 {
		t.Errorf("TuranBound = %d, want 1", g.TuranBound())
	}
}

func TestStarGraph(t *testing.T) {
	// Star: center 0 connected to 1..9. Independent set = the 9 leaves.
	g := New(ids(10))
	for i := 1; i < 10; i++ {
		g.AddEdge(0, tso.ProcID(i))
	}
	is := g.IndependentSet()
	if len(is) != 9 {
		t.Fatalf("independent set = %v, want 9 leaves", is)
	}
	for _, v := range is {
		if v == 0 {
			t.Error("center must not be in the leaf independent set")
		}
	}
}

func TestIndependentSetIsIndependentAndMeetsTuran(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g := New(ids(n))
		edges := rng.Intn(n * 2)
		for e := 0; e < edges; e++ {
			g.AddEdge(tso.ProcID(rng.Intn(n)), tso.ProcID(rng.Intn(n)))
		}
		is := g.IndependentSet()
		for i := 0; i < len(is); i++ {
			for j := i + 1; j < len(is); j++ {
				if g.HasEdge(is[i], is[j]) {
					t.Fatalf("trial %d: edge inside independent set: %v-%v", trial, is[i], is[j])
				}
			}
		}
		if len(is) < g.TuranBound() {
			t.Fatalf("trial %d: |IS|=%d < Turán bound %d (n=%d, e=%d)",
				trial, len(is), g.TuranBound(), n, g.NumEdges())
		}
	}
}

func TestIndependentSetDeterministic(t *testing.T) {
	mk := func() []tso.ProcID {
		g := New(ids(12))
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.AddEdge(3, 4)
		g.AddEdge(5, 6)
		g.AddEdge(6, 7)
		return g.IndependentSet()
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("non-deterministic size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic membership")
		}
	}
}

func TestTuranBoundQuick(t *testing.T) {
	// Property: for any graph on n<=30 vertices with arbitrary edges, the
	// greedy independent set meets the Turán bound ceil(n^2/(2e+n)).
	f := func(n uint8, pairs []uint16) bool {
		size := int(n%30) + 1
		g := New(ids(size))
		for _, pr := range pairs {
			u := tso.ProcID(int(pr>>8) % size)
			v := tso.ProcID(int(pr&0xff) % size)
			g.AddEdge(u, v)
		}
		return len(g.IndependentSet()) >= g.TuranBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mapGreedy is a reference for IndependentSet over maps keyed by process
// ID: repeatedly take the alive vertex of minimum remaining degree
// (smallest ID on ties) and delete it with its neighbourhood.
func mapGreedy(verts []tso.ProcID, edges [][2]tso.ProcID) []tso.ProcID {
	adj := map[tso.ProcID]map[tso.ProcID]bool{}
	for _, v := range verts {
		adj[v] = map[tso.ProcID]bool{}
	}
	for _, e := range edges {
		if e[0] != e[1] {
			adj[e[0]][e[1]] = true
			adj[e[1]][e[0]] = true
		}
	}
	deg := map[tso.ProcID]int{}
	alive := map[tso.ProcID]bool{}
	for _, v := range verts {
		deg[v] = len(adj[v])
		alive[v] = true
	}
	var out []tso.ProcID
	for len(alive) > 0 {
		best := tso.ProcID(-1)
		for v := range alive {
			if best < 0 || deg[v] < deg[best] || (deg[v] == deg[best] && v < best) {
				best = v
			}
		}
		out = append(out, best)
		kill := []tso.ProcID{best}
		for u := range adj[best] {
			if alive[u] {
				kill = append(kill, u)
			}
		}
		for _, u := range kill {
			delete(alive, u)
			for w := range adj[u] {
				if alive[w] {
					deg[w]--
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

func TestIndependentSetMatchesMapGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		// Sparse vertex IDs, given out of order, so positions and IDs
		// differ.
		n := 1 + rng.Intn(80)
		verts := rng.Perm(3 * n)[:n]
		ps := make([]tso.ProcID, n)
		for i, v := range verts {
			ps[i] = tso.ProcID(v)
		}
		g := New(ps)
		var edges [][2]tso.ProcID
		for e := rng.Intn(3 * n); e > 0; e-- {
			u, v := ps[rng.Intn(n)], ps[rng.Intn(n)]
			g.AddEdge(u, v)
			edges = append(edges, [2]tso.ProcID{u, v})
		}
		if got, want := g.IndependentSet(), mapGreedy(ps, edges); !slices.Equal(got, want) {
			t.Fatalf("trial %d: IndependentSet = %v, reference %v", trial, got, want)
		}
	}
}

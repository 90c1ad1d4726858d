package tso

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// bookModel rebuilds, from the recorded events alone, the bookkeeping the
// simulator keeps incrementally: awareness per Definition 1, accessor sets
// per variable, remote-read sets per process, last writers, and each
// event's Critical flag per Definition 2. It uses plain maps, so it shares
// no representation with the simulator's bitsets.
type bookModel struct {
	n          int
	aw         []map[ProcID]bool         // AW(p)
	varAW      map[int]map[ProcID]bool   // awareness carried by v's last committed write
	snap       []map[int]map[ProcID]bool // p's buffered write to v -> issuer's awareness at issue
	accessors  map[int]map[ProcID]bool   // processes that accessed v
	remoteRead []map[int]bool            // variables p remotely read since its last crash
	lastWriter map[int]ProcID            // absent for ⊥
}

func newBookModel(n int) *bookModel {
	m := &bookModel{
		n:          n,
		aw:         make([]map[ProcID]bool, n),
		varAW:      map[int]map[ProcID]bool{},
		snap:       make([]map[int]map[ProcID]bool, n),
		accessors:  map[int]map[ProcID]bool{},
		remoteRead: make([]map[int]bool, n),
		lastWriter: map[int]ProcID{},
	}
	for p := range m.aw {
		m.reset(ProcID(p))
	}
	return m
}

// reset discards p's volatile state: a crash, or the initial state.
func (m *bookModel) reset(p ProcID) {
	m.aw[p] = map[ProcID]bool{p: true}
	m.snap[p] = map[int]map[ProcID]bool{}
	m.remoteRead[p] = map[int]bool{}
}

func (m *bookModel) access(v int, p ProcID) {
	if m.accessors[v] == nil {
		m.accessors[v] = map[ProcID]bool{}
	}
	m.accessors[v][p] = true
}

func union(dst, src map[ProcID]bool) {
	for q := range src {
		dst[q] = true
	}
}

func cloneSet(s map[ProcID]bool) map[ProcID]bool {
	out := make(map[ProcID]bool, len(s))
	union(out, s)
	return out
}

// apply advances the model by e and returns the Critical flag the model
// expects e to carry.
func (m *bookModel) apply(e Event) (bool, error) {
	p := e.P
	if e.Var == nil {
		if e.Kind == EvCrash {
			m.reset(p)
		}
		return false, nil
	}
	v := e.Var.Index()
	remote := e.Var.Owner() != p
	if e.Remote != remote {
		return false, fmt.Errorf("Remote = %t, want %t", e.Remote, remote)
	}
	firstRemoteRead := func() bool {
		crit := remote && !m.remoteRead[p][v]
		if remote {
			m.remoteRead[p][v] = true
		}
		return crit
	}
	switch e.Kind {
	case EvRead:
		_, buffered := m.snap[p][v]
		if e.FromBuffer != buffered {
			return false, fmt.Errorf("FromBuffer = %t, want %t", e.FromBuffer, buffered)
		}
		if buffered {
			return false, nil
		}
		crit := firstRemoteRead()
		union(m.aw[p], m.varAW[v])
		m.access(v, p)
		return crit, nil
	case EvWriteIssue:
		// A coalesced re-issue replaces the snapshot.
		m.snap[p][v] = cloneSet(m.aw[p])
		return false, nil
	case EvWriteCommit:
		s, ok := m.snap[p][v]
		if !ok {
			return false, fmt.Errorf("commit of %s with no buffered write", e.Var)
		}
		delete(m.snap[p], v)
		s[p] = true
		m.varAW[v] = s
		w, written := m.lastWriter[v]
		m.lastWriter[v] = p
		m.access(v, p)
		return !written || w != p, nil
	case EvCAS:
		crit := firstRemoteRead()
		union(m.aw[p], m.varAW[v])
		if e.CASOK {
			if w, written := m.lastWriter[v]; !written || w != p {
				crit = true
			}
			m.lastWriter[v] = p
			m.varAW[v] = cloneSet(m.aw[p])
		}
		m.access(v, p)
		return crit, nil
	}
	return false, fmt.Errorf("unexpected event kind %s with a variable", e.Kind)
}

// sorted lists a set in ascending order.
func sorted(s map[ProcID]bool) []ProcID {
	out := make([]ProcID, 0, len(s))
	for q := range s {
		out = append(out, q)
	}
	slices.Sort(out)
	return out
}

// compare checks the simulator's bookkeeping queries against the model:
// every process's Awareness and HasRemotelyRead, every variable's
// AccessedBy and LastWriter, and AwareOf over all q for the processes in
// pairs (all of them when pairs is nil).
func (m *bookModel) compare(s *Simulator, pairs []ProcID) error {
	vars := s.Memory().Vars()
	for p := ProcID(0); int(p) < m.n; p++ {
		if got, want := s.Awareness(p), sorted(m.aw[p]); !slices.Equal(got, want) {
			return fmt.Errorf("Awareness(p%d) = %v, want %v", p, got, want)
		}
		for _, v := range vars {
			if got, want := s.HasRemotelyRead(p, v), m.remoteRead[p][v.Index()]; got != want {
				return fmt.Errorf("HasRemotelyRead(p%d, %s) = %t, want %t", p, v, got, want)
			}
		}
	}
	for _, v := range vars {
		if got, want := s.AccessedBy(v), sorted(m.accessors[v.Index()]); !slices.Equal(got, want) {
			return fmt.Errorf("AccessedBy(%s) = %v, want %v", v, got, want)
		}
		w, ok := s.LastWriter(v)
		mw, mok := m.lastWriter[v.Index()]
		if ok != mok || w != mw {
			return fmt.Errorf("LastWriter(%s) = p%d,%t, want p%d,%t", v, w, ok, mw, mok)
		}
	}
	if pairs == nil {
		for p := 0; p < m.n; p++ {
			pairs = append(pairs, ProcID(p))
		}
	}
	for _, p := range pairs {
		for q := ProcID(0); int(q) < m.n; q++ {
			if got, want := s.AwareOf(p, q), m.aw[p][q]; got != want {
				return fmt.Errorf("AwareOf(p%d, p%d) = %t, want %t", p, q, got, want)
			}
		}
	}
	return nil
}

// FuzzSimulatorBookkeeping runs genProgram programs, each passage prefixed
// by a read-then-CAS on a shared counter, under a seeded random schedule of
// steps, commits and crashes, and compares the simulator with bookModel
// after every event. N is nByte%130+1, so the seed corpus's N = 3, 65 and
// 130 make the process sets span one, two and three bitset words. Run with:
//
//	go test ./internal/tso -run '^$' -fuzz FuzzSimulatorBookkeeping
func FuzzSimulatorBookkeeping(f *testing.F) {
	for _, n := range []uint8{2, 64, 129} {
		for _, pso := range []bool{false, true} {
			f.Add(int64(n)*11+1, n, pso)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, nByte uint8, pso bool) {
		n := int(nByte)%130 + 1
		const nv, ops, maxCrashes = 5, 8, 2
		ordering := TSO
		if pso {
			ordering = PSO
		}
		gen := genProgram(seed, nv, ops)
		build := func(sim *Simulator) (Program, error) {
			prog, err := gen(sim)
			c := sim.Memory().NewVar("c")
			return func(p *Proc) {
				old := p.Read(c)
				p.CAS(c, old, old+1)
				prog(p)
			}, err
		}
		s, err := NewSimulator(Config{N: n, Ordering: ordering, AllowConcurrentCS: true}, build)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Kill()
		m := newBookModel(n)
		var failure error
		s.AddObserver(func(e Event) {
			if failure != nil {
				return
			}
			crit, err := m.apply(e)
			if err == nil && e.Critical != crit {
				err = fmt.Errorf("Critical = %t, want %t", e.Critical, crit)
			}
			if err == nil {
				err = m.compare(s, []ProcID{e.P})
			}
			if err != nil {
				failure = fmt.Errorf("after event %d (%s): %w", e.Seq, e, err)
			}
		})
		rng := rand.New(rand.NewSource(seed))
		runnable := make([]ProcID, 0, n)
		for steps := 0; failure == nil && !s.allDone(); steps++ {
			if steps > 100000 {
				t.Fatal("schedule did not finish within 100000 decisions")
			}
			runnable = runnable[:0]
			for p := 0; p < n; p++ {
				if !s.Done(ProcID(p)) {
					runnable = append(runnable, ProcID(p))
				}
			}
			p := runnable[rng.Intn(len(runnable))]
			var err error
			switch r := rng.Float64(); {
			case r < 0.02 && s.Started(p) && !s.Crashed(p) && s.Crashes(p) < maxCrashes:
				_, err = s.Crash(p)
			case r < 0.3 && s.BufferSize(p) > 0:
				if bufd := s.BufferedVars(p); pso {
					_, err = s.CommitVar(p, bufd[rng.Intn(len(bufd))])
				} else {
					_, err = s.Commit(p)
				}
			default:
				_, err = s.Step(p)
			}
			if err != nil {
				t.Fatalf("decision %d (p%d): %v", steps, p, err)
			}
		}
		if failure == nil {
			failure = m.compare(s, nil)
		}
		if failure != nil {
			t.Fatalf("N=%d %s seed %d: %v", n, ordering, seed, failure)
		}
	})
}

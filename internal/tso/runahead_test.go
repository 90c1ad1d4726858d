package tso_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"priceadaptive/internal/mutex"
	"priceadaptive/internal/tso"
)

// The conditions a run may stop on. They inspect the state the previous
// event left, as the construction's do.
func notSpecial(s *tso.Simulator, id tso.ProcID) bool  { return !s.PendingSpecial(id) }
func notCritical(s *tso.Simulator, id tso.ProcID) bool { return !s.PendingCritical(id) }

var runConds = []func(*tso.Simulator, tso.ProcID) bool{nil, notSpecial, notCritical}

// stepWhile is StepWhile's reference: one Step per event, with the caller
// checking the condition between them.
func stepWhile(s *tso.Simulator, id tso.ProcID, max int, cont func(*tso.Simulator, tso.ProcID) bool) (int, error) {
	n := 0
	for ; n < max; n++ {
		if n > 0 && (s.Done(id) || cont != nil && !cont(s, id)) {
			break
		}
		if _, err := s.Step(id); err != nil {
			return n, err
		}
	}
	return n, nil
}

// replayByApply is ReplayPrefix's reference: a fresh simulator applies the
// prefix's decisions of unbanned processes one Apply at a time.
func replayByApply(cfg tso.Config, build tso.Build, sched []tso.Decision, banned map[tso.ProcID]bool) (*tso.Simulator, error) {
	s, err := tso.NewSimulator(cfg, build)
	if err != nil {
		return nil, err
	}
	for i, d := range sched {
		if banned[d.P] {
			continue
		}
		if _, err := s.Apply(d); err != nil {
			s.Kill()
			return nil, fmt.Errorf("tso: replay decision %d (p%d): %w", i, d.P, err)
		}
	}
	return s, nil
}

// newSim builds a simulator that the test kills when it ends.
func newSim(t *testing.T, cfg tso.Config, build tso.Build) *tso.Simulator {
	t.Helper()
	s, err := tso.NewSimulator(cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	return s
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func varIndex(v *tso.Var) int {
	if v == nil {
		return -1
	}
	return v.Index()
}

// sameRun reports the first difference between two simulators of one
// program: their event and decision logs, and per process its passage
// statistics, fences, awareness, program panic and pending operation, and
// the exclusion violation. Variables are compared by index, because each
// simulator allocates its own.
func sameRun(want, got *tso.Simulator) error {
	we, ge := want.Execution(), got.Execution()
	if len(we.Events) != len(ge.Events) {
		return fmt.Errorf("%d events, want %d", len(ge.Events), len(we.Events))
	}
	for i := range we.Events {
		w, g := we.Events[i], ge.Events[i]
		wv, gv := varIndex(w.Var), varIndex(g.Var)
		w.Var, g.Var = nil, nil
		if wv != gv || w != g {
			return fmt.Errorf("event %d is %s, want %s", i, ge.Events[i], we.Events[i])
		}
	}
	if !slices.Equal(we.Schedule, ge.Schedule) {
		return fmt.Errorf("schedules differ:\n got  %v\n want %v", ge.Schedule, we.Schedule)
	}
	for i := 0; i < want.Config().N; i++ {
		id := tso.ProcID(i)
		if w, g := want.Stats(id), got.Stats(id); !slices.Equal(w, g) {
			return fmt.Errorf("p%d stats %+v, want %+v", id, g, w)
		}
		if w, g := want.FencesCompleted(id), got.FencesCompleted(id); w != g {
			return fmt.Errorf("p%d completed %d fences, want %d", id, g, w)
		}
		if w, g := want.Awareness(id), got.Awareness(id); !slices.Equal(w, g) {
			return fmt.Errorf("p%d aware of %v, want %v", id, g, w)
		}
		wm, wok := want.ProgramPanic(id)
		gm, gok := got.ProgramPanic(id)
		if wm != gm || wok != gok {
			return fmt.Errorf("p%d panic %q, %t; want %q, %t", id, gm, gok, wm, wok)
		}
		if w, g := want.PendingOp(id).String(), got.PendingOp(id).String(); w != g {
			return fmt.Errorf("p%d pending %s, want %s", id, g, w)
		}
	}
	wv, gv := want.ExclusionViolation(), got.ExclusionViolation()
	if (wv == nil) != (gv == nil) || wv != nil && *wv != *gv {
		return fmt.Errorf("exclusion violation %v, want %v", gv, wv)
	}
	return nil
}

// TestRunAheadMatchesStepping drives every lock of the registry, at the
// sizes it builds at, through seeded random schedules made of runs, crashes
// and commits, twice: once with a Step per event and the condition checked
// between Steps, once with a StepWhile per run, in which the process runs
// ahead on its own goroutine. Both must record the same execution and end
// in the same state. Then ReplayPrefix, which replays each run of steps as
// one StepWhile, must rebuild what applying the schedule's unbanned
// decisions one at a time rebuilds, errors included.
func TestRunAheadMatchesStepping(t *testing.T) {
	const seeds, moves, replays = 2, 40, 3
	for _, name := range mutex.Names() {
		build := mutex.Build(mutex.Registry()[name])
		for _, n := range []int{2, 3} {
			cfg := tso.Config{N: n, Passages: 2}
			if s, err := tso.NewSimulator(cfg, build); err != nil {
				continue
			} else {
				s.Kill()
			}
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", name, n, seed), func(t *testing.T) {
					t.Parallel()
					ref := newSim(t, cfg, build)
					run := newSim(t, cfg, build)
					rng := rand.New(rand.NewSource(seed))
					for m := 0; m < moves; m++ {
						var live []tso.ProcID
						for i := 0; i < n; i++ {
							if !ref.Done(tso.ProcID(i)) {
								live = append(live, tso.ProcID(i))
							}
						}
						if len(live) == 0 {
							break
						}
						p := live[rng.Intn(len(live))]
						var what string
						var wn, gn int
						var werr, gerr error
						switch r := rng.Intn(16); {
						case r == 0 && ref.Started(p) && !ref.Crashed(p):
							what = "crash"
							_, werr = ref.Crash(p)
							_, gerr = run.Crash(p)
						case r < 4 && ref.BufferSize(p) > 0:
							what = "commit"
							_, werr = ref.Commit(p)
							_, gerr = run.Commit(p)
						default:
							max, c := 1+rng.Intn(12), rng.Intn(len(runConds))
							what = fmt.Sprintf("run of %d under condition %d", max, c)
							wn, werr = stepWhile(ref, p, max, runConds[c])
							gn, gerr = run.StepWhile(p, max, runConds[c])
						}
						if wn != gn || errText(werr) != errText(gerr) {
							t.Fatalf("move %d, p%d %s: %d events (err %v), want %d (err %v)", m, p, what, gn, gerr, wn, werr)
						}
						if err := sameRun(ref, run); err != nil {
							t.Fatalf("move %d, p%d %s: %v", m, p, what, err)
						}
					}
					sched := ref.Execution().Schedule
					for r := 0; r < replays; r++ {
						banned := map[tso.ProcID]bool{}
						for i := 0; i < n; i++ {
							if rng.Intn(3) == 0 {
								banned[tso.ProcID(i)] = true
							}
						}
						upTo := rng.Intn(len(sched) + 1)
						want, werr := replayByApply(ref.Config(), build, sched[:upTo], banned)
						got, gerr := ref.ReplayPrefix(banned, upTo)
						if errText(werr) != errText(gerr) {
							t.Fatalf("replay of %d decisions without %v: %v, want %v", upTo, banned, gerr, werr)
						}
						if werr != nil {
							continue
						}
						err := sameRun(want, got)
						want.Kill()
						got.Kill()
						if err != nil {
							t.Fatalf("replay of %d decisions without %v: %v", upTo, banned, err)
						}
					}
				})
			}
		}
	}
}

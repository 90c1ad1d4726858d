package absint

import (
	"fmt"

	"priceadaptive/internal/rmr"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// Decision is a JSON-friendly scheduling decision for witness schedules
// (TSO only: a commit always releases the oldest buffered write).
type Decision struct {
	P      int  `json:"p"`
	Commit bool `json:"commit,omitempty"`
}

func (d Decision) tso() tso.Decision {
	return tso.Decision{P: tso.ProcID(d.P), Commit: d.Commit}
}

// TraceEvent is one classified fast-engine transition: what the decision
// did, which variable it touched, and what it cost. RMR is indexed in
// rmr.Models() order (DSM, CC-WT, CC-WB).
type TraceEvent struct {
	P     int     `json:"p"`
	PC    int     `json:"pc"`
	Kind  string  `json:"kind"`
	Var   int     `json:"var"` // variable index, -1 when none
	Fence bool    `json:"fence,omitempty"`
	RMR   [3]bool `json:"rmr"`
}

// String renders the event compactly for diagnostics.
func (ev TraceEvent) String() string {
	s := fmt.Sprintf("p%d@%d %s", ev.P, ev.PC, ev.Kind)
	if ev.Var >= 0 {
		s += fmt.Sprintf(" var%d", ev.Var)
	}
	return s
}

// Counts are quantitative observations of one passage, in the same units
// as the static intervals.
type Counts struct {
	Fences int    `json:"fences"`
	RMR    [3]int `json:"rmr"` // rmr.Models() order
}

// ccLines is the coherence state of both CC models, flattened as
// lines[mi][v*n+p] for CC model rmr.Models()[mi+1] (DSM keeps no lines).
type ccLines [2][]rmr.Mode

func newCCLines(nvars, n int) *ccLines {
	var l ccLines
	for mi := range l {
		l[mi] = make([]rmr.Mode, nvars*n)
	}
	return &l
}

func (l *ccLines) clone() *ccLines {
	var nl ccLines
	for mi := range l {
		nl[mi] = append([]rmr.Mode(nil), l[mi]...)
	}
	return &nl
}

// classify inspects st *before* applying d and returns the transition's
// event, charging all three RMR models against lines with the same
// rmr.Classify predicate the dynamic Accountant uses (and mutating the
// CC lines accordingly). The dispatch mirrors Engine.Step/Engine.Commit
// exactly; a divergence would make a replayed trace differ and fail
// witness verification.
func classify(eng *vmprog.Engine, st *vmprog.State, lines *ccLines, d Decision) (TraceEvent, error) {
	n := eng.NumProcs()
	p := &st.Procs[d.P]
	ev := TraceEvent{P: d.P, PC: p.PC, Var: -1}
	charge := func(k rmr.AccessKind) {
		// An owned array's element is DSM-local to its owner
		// (Program.Owned), as rme.ReplayRMR prices it.
		remote := eng.Program().Owner(ev.Var) != ev.P
		for mi, model := range rmr.Models() {
			var line []rmr.Mode
			if mi > 0 {
				line = lines[mi-1][ev.Var*n : (ev.Var+1)*n]
			}
			ev.RMR[mi] = rmr.Classify(model, k, ev.P, remote, line)
		}
	}
	switch {
	case d.Commit:
		if p.BufLen() == 0 || p.Fencing {
			return ev, fmt.Errorf("absint: commit not enabled for p%d", d.P)
		}
		ev.Kind = "commit"
		ev.Var = p.BufVar(0)
		charge(rmr.AccessWriteCommit)
	case !p.Started:
		ev.Kind = "enter"
	case p.Fencing && p.BufLen() > 0:
		ev.Kind = "commit"
		ev.Var = p.BufVar(0)
		charge(rmr.AccessWriteCommit)
	case p.Fencing:
		ev.Kind = "endfence"
		ev.Fence = true
	default:
		in := eng.Program().Code[p.PC]
		switch in.Op {
		case vmprog.OpRead:
			vi, err := eng.Program().Addr(in, &p.Regs)
			if err != nil {
				return ev, err
			}
			ev.Var = vi
			forwarded := false
			for i := 0; i < p.BufLen(); i++ {
				if p.BufVar(i) == vi {
					forwarded = true
				}
			}
			if forwarded {
				ev.Kind = "forward"
			} else {
				ev.Kind = "read"
				charge(rmr.AccessRead)
			}
		case vmprog.OpWrite:
			vi, err := eng.Program().Addr(in, &p.Regs)
			if err != nil {
				return ev, err
			}
			ev.Kind = "write-issue"
			ev.Var = vi
		case vmprog.OpFence:
			ev.Kind = "beginfence"
		case vmprog.OpCAS:
			if p.BufLen() > 0 {
				ev.Kind = "commit"
				ev.Var = p.BufVar(0)
				charge(rmr.AccessWriteCommit)
				break
			}
			vi, err := eng.Program().Addr(in, &p.Regs)
			if err != nil {
				return ev, err
			}
			ev.Var = vi
			ev.Fence = true
			if st.Mem[vi] == p.Regs[in.B] {
				ev.Kind = "cas"
				charge(rmr.AccessCASSuccess)
			} else {
				ev.Kind = "cas-fail"
				charge(rmr.AccessCASFail)
			}
		case vmprog.OpCS:
			ev.Kind = "cs"
		case vmprog.OpHalt:
			ev.Kind = "halt"
		default:
			return ev, fmt.Errorf("absint: p%d parked at non-event op %d", d.P, int(in.Op))
		}
	}
	return ev, nil
}

// tracer drives one fast-engine run while classifying every transition.
type tracer struct {
	eng   *vmprog.Engine
	st    *vmprog.State
	lines *ccLines
}

func newTracer(p *vmprog.Program, n int) (*tracer, error) {
	eng, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
	if err != nil {
		return nil, err
	}
	return &tracer{eng: eng, st: eng.Initial(), lines: newCCLines(len(p.Vars), n)}, nil
}

// apply classifies and then executes one decision.
func (t *tracer) apply(d Decision) (TraceEvent, error) {
	ev, err := classify(t.eng, t.st, t.lines, d)
	if err != nil {
		return ev, err
	}
	if err := t.eng.Apply(t.st, d.tso()); err != nil {
		return ev, err
	}
	return ev, nil
}

package adversary

import (
	"context"
	"fmt"
	"sort"

	"priceadaptive/internal/awareness"
	"priceadaptive/internal/graphs"
	"priceadaptive/internal/tso"
)

// stopError unwinds the construction with an algorithmic outcome.
type stopError struct {
	reason    StopReason
	cert      *NonAdaptiveCertificate
	violation *tso.Violation
}

// Error implements the error interface.
func (e *stopError) Error() string { return "adversary: stopped: " + e.reason.String() }

// state carries the construction through its phases.
type state struct {
	ctx context.Context // padvet:allow ctx-field single construction run, threaded through every phase
	cfg Config
	sim *tso.Simulator
	// act is the current active (and invisible) set, sorted ascending.
	act []tso.ProcID
	// fin is i, the number of finished processes.
	fin int
	// crit is l_i, the number of critical events per active process.
	crit int
	res  *Result
	// bestFences/bestWitness/bestCrit snapshot the strongest Theorem 1
	// witness seen so far: after building H_i with a non-empty active set,
	// any active process has completed i fences mid-passage. bestSchedLen
	// and bestBanned pin the schedule prefix and erasure set needed to
	// extract the witness execution (the final erasure in the proof of
	// Theorem 1).
	bestFences   int
	bestWitness  tso.ProcID
	bestCrit     int
	bestSchedLen int
	bestBanned   map[tso.ProcID]bool
}

// newState builds the simulator and the initial execution H_0, in which
// every process executes its Enter event only.
func newState(cfg Config) (*state, error) {
	sim, err := tso.NewSimulator(tso.Config{
		N:        cfg.N,
		Model:    cfg.Model,
		Passages: 1,
		Name:     "adversary",
	}, cfg.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("adversary: build victim: %w", err)
	}
	st := &state{cfg: cfg, sim: sim, res: &Result{Witness: -1}, bestWitness: -1}
	st.act = make([]tso.ProcID, cfg.N)
	for i := 0; i < cfg.N; i++ {
		st.act[i] = tso.ProcID(i)
		if _, err := sim.Step(tso.ProcID(i)); err != nil {
			sim.Kill()
			return nil, fmt.Errorf("adversary: H_0 Enter p%d: %w", i, err)
		}
	}
	return st, nil
}

// run drives induction steps until a stop condition fires.
func (st *state) run() (*Result, error) {
	err := func() error {
		for i := 0; ; i++ {
			if err := st.ctx.Err(); err != nil {
				return err
			}
			if len(st.act) == 0 {
				return &stopError{reason: StopActiveExhausted}
			}
			if i >= st.cfg.MaxInduction {
				return &stopError{reason: StopMaxInduction}
			}
			if err := st.inductionStep(i); err != nil {
				return err
			}
			if len(st.act) > 0 {
				st.bestFences = st.fin
				st.bestWitness = st.act[0]
				st.bestCrit = st.sim.CurrentStats(st.act[0]).Critical
				st.bestSchedLen = len(st.sim.Execution().Schedule)
				st.bestBanned = make(map[tso.ProcID]bool, len(st.act)-1)
				for _, p := range st.act[1:] {
					st.bestBanned[p] = true
				}
			}
		}
	}()
	var se *stopError
	if !asStop(err, &se) {
		return nil, err
	}
	st.res.Stopped = se.reason
	st.res.Certificate = se.cert
	st.res.Violation = se.violation
	if err := st.finalize(); err != nil {
		return nil, err
	}
	return st.res, nil
}

// asStop unwraps a *stopError.
func asStop(err error, out **stopError) bool {
	se, ok := err.(*stopError)
	if ok {
		*out = se
	}
	return ok
}

// finalize fills the summary fields of the result.
func (st *state) finalize() error {
	st.res.InductionSteps = st.fin
	st.res.FencesForced = st.bestFences
	st.res.TotalContention = st.bestFences + 1
	st.res.ActiveRemaining = len(st.act)
	st.res.CriticalPerActive = st.crit
	st.res.Events = len(st.sim.Execution().Events)
	st.res.Witness = st.bestWitness
	st.res.WitnessCritical = st.bestCrit
	return st.extractWitness()
}

// extractWitness performs the final step of the proof of Theorem 1: erase
// every active process except the witness from H_i, leaving an execution H
// whose total contention is i+1 in which the witness executed i fences
// inside a single passage. The result is verified (the erasure must be
// faithful and the fence count must match) and summarized in the Result. A
// replay that fails is an internal error: the recorded schedule applied
// once already.
func (st *state) extractWitness() error {
	if st.bestWitness < 0 {
		return nil
	}
	replayed, err := st.sim.ReplayPrefix(st.bestBanned, st.bestSchedLen)
	if err != nil {
		return fmt.Errorf("adversary: witness replay: %w", err)
	}
	defer replayed.Kill()
	participants := make(map[tso.ProcID]bool)
	for _, e := range replayed.Execution().Events {
		participants[e.P] = true
	}
	st.res.WitnessParticipants = len(participants)
	st.res.WitnessVerified = replayed.FencesCompleted(st.bestWitness) == st.bestFences &&
		len(participants) == st.bestFences+1
	return nil
}

// inductionStep builds H_{i+1} from H_i via the three phases.
func (st *state) inductionStep(i int) error {
	if err := st.readPhase(i); err != nil {
		return err
	}
	if err := st.writePhase(i); err != nil {
		return err
	}
	if err := st.regularizePhase(i); err != nil {
		return err
	}
	return st.checkInductionInvariants()
}

// allowed returns f(i+1), the adaptivity budget for the current step.
func (st *state) allowed() float64 { return st.cfg.F.Eval(st.fin + 1) }

// certificate stops the run with a non-adaptivity certificate for process p.
func (st *state) certificate(phase string, p tso.ProcID, critical int) error {
	return &stopError{
		reason: StopNonAdaptive,
		cert: &NonAdaptiveCertificate{
			Phase:          phase,
			Contention:     st.fin + 1,
			Process:        p,
			CriticalEvents: critical,
			Allowed:        st.allowed(),
		},
	}
}

// notSpecial and soloRunnable are the conditions under which the
// construction runs one process alone: up to its next special event
// (Lemmas 6 and 7), and up to its end or its next critical event, short of
// a CAS (Lemma 8). They are functions, not closures, so that handing one
// to StepWhile allocates nothing.
func notSpecial(s *tso.Simulator, p tso.ProcID) bool { return !s.PendingSpecial(p) }

func soloRunnable(s *tso.Simulator, p tso.ProcID) bool {
	return !s.Done(p) && !s.PendingCritical(p) && s.PendingOp(p).Kind != tso.OpCAS
}

// runSolo runs p alone while cont holds, in one StepWhile; what names the
// run in an error. A process that takes more than SoloBudget events stops
// the construction: the victim is not weak obstruction-free.
func (st *state) runSolo(what string, p tso.ProcID, cont func(*tso.Simulator, tso.ProcID) bool) error {
	if !cont(st.sim, p) {
		return nil
	}
	n, err := st.sim.StepWhile(p, st.cfg.SoloBudget+1, cont)
	if err != nil {
		return fmt.Errorf("adversary: %s p%d: %w", what, p, err)
	}
	if n > st.cfg.SoloBudget {
		return &stopError{reason: StopNotObstructionFree}
	}
	return nil
}

// runAllToSpecial advances every active process (in increasing ID order)
// until its pending operation is a special event.
func (st *state) runAllToSpecial() error {
	for _, p := range st.act {
		if err := st.runSolo("advancing", p, notSpecial); err != nil {
			return err
		}
		if msg, ok := st.sim.ProgramPanic(p); ok {
			return fmt.Errorf("adversary: p%d panicked: %s", p, msg)
		}
	}
	if v := st.sim.ExclusionViolation(); v != nil {
		return &stopError{reason: StopViolation, violation: v}
	}
	return nil
}

// erase removes all active processes outside keep from the execution by
// deterministic replay, verifies the erasure, and swaps the simulator.
func (st *state) erase(keep []tso.ProcID, rec *PhaseRecord) error {
	keepSet := make(map[tso.ProcID]bool, len(keep))
	for _, p := range keep {
		keepSet[p] = true
	}
	banned := make(map[tso.ProcID]bool)
	for _, p := range st.act {
		if !keepSet[p] {
			banned[p] = true
		}
	}
	if len(banned) == 0 {
		return nil
	}
	// Remember pending operations for the congruence assertion (Lemma 4,
	// part 5). Variables are compared by index because replay reallocates
	// them.
	type pend struct {
		kind tso.OpKind
		vi   int
	}
	before := make(map[tso.ProcID]pend, len(keep))
	for _, p := range keep {
		op := st.sim.PendingOp(p)
		vi := -1
		if op.Var != nil {
			vi = op.Var.Index()
		}
		before[p] = pend{kind: op.Kind, vi: vi}
	}

	replayed, err := st.sim.Replay(banned)
	if err != nil {
		return fmt.Errorf("adversary: erase %d processes: %w", len(banned), err)
	}
	if err := tso.VerifyErasure(st.sim.Execution(), replayed.Execution(), banned); err != nil {
		replayed.Kill()
		return fmt.Errorf("adversary: erasure not invisible: %w", err)
	}
	st.sim.Kill()
	st.sim = replayed

	newAct := make([]tso.ProcID, 0, len(keep))
	for _, p := range st.act {
		if keepSet[p] {
			newAct = append(newAct, p)
		}
	}
	st.act = newAct
	rec.Erased += len(banned)

	for _, p := range st.act {
		op := st.sim.PendingOp(p)
		vi := -1
		if op.Var != nil {
			vi = op.Var.Index()
		}
		if b := before[p]; b.kind != op.Kind || b.vi != vi {
			return fmt.Errorf("adversary: p%d pending op not congruent after erasure: had %v/%d, now %v/%d",
				p, b.kind, b.vi, op.Kind, vi)
		}
	}
	return nil
}

// readPhase implements Lemma 6: it extends the execution with critical reads
// until the surviving active processes are all about to begin a fence.
func (st *state) readPhase(i int) error {
	rec := PhaseRecord{
		Induction: i, Phase: "read", ActiveBefore: len(st.act),
		EventsBefore: len(st.sim.Execution().Events),
	}
	defer func() {
		rec.ActiveAfter = len(st.act)
		rec.EventsAfter = len(st.sim.Execution().Events)
		st.res.Phases = append(st.res.Phases, rec)
	}()
	for {
		if err := st.runAllToSpecial(); err != nil {
			return err
		}
		var z1, z2 []tso.ProcID
		for _, p := range st.act {
			op := st.sim.PendingOp(p)
			switch op.Kind {
			case tso.OpCS:
				// At most one process may be about to enter the CS
				// (Lemma 5); it is dropped from Y and erased below.
			case tso.OpBeginFence:
				z1 = append(z1, p)
			case tso.OpRead:
				z2 = append(z2, p)
			case tso.OpCAS, tso.OpCommit:
				// Every active process is between fences here, so a pending
				// commit is the buffer drain of a CAS.
				return ErrUsesCAS
			default:
				return fmt.Errorf("adversary: read phase: p%d pending unexpected %v", p, op)
			}
		}
		if len(z1) == 0 && len(z2) == 0 {
			// Only CS-pending processes remain; no further fence can be
			// forced.
			return &stopError{reason: StopActiveExhausted}
		}
		if len(z1) > len(z2) {
			// Case I: a majority is about to fence. Keep them, erase the
			// rest, and execute the BeginFence events.
			if err := st.erase(z1, &rec); err != nil {
				return err
			}
			for _, p := range st.act {
				if _, err := st.sim.Step(p); err != nil {
					return fmt.Errorf("adversary: BeginFence p%d: %w", p, err)
				}
			}
			return nil
		}
		// Case II: thin the readers with an independent set of the
		// conflict graph (edges to the owner and the last writer of the
		// variable about to be read), then execute the reads.
		g := graphs.New(z2)
		for _, p := range z2 {
			v := st.sim.PendingOp(p).Var
			if owner := v.Owner(); owner != tso.NoOwner {
				g.AddEdge(p, owner)
			}
			if w, ok := st.sim.LastWriter(v); ok {
				g.AddEdge(p, w)
			}
		}
		keep := g.IndependentSet()
		if err := st.erase(keep, &rec); err != nil {
			return err
		}
		for _, p := range st.act {
			if _, err := st.sim.Step(p); err != nil {
				return fmt.Errorf("adversary: critical read p%d: %w", p, err)
			}
		}
		rec.Iterations++
		st.crit++
		if float64(st.crit) > st.allowed() {
			return st.certificate("read", st.act[0], st.crit)
		}
		if err := st.checkRegular(); err != nil {
			return err
		}
	}
}

// writePhase implements Lemma 7: buffered writes are committed; conflicting
// writers are thinned (low contention) or serialized in increasing ID order
// on a single hot variable (high contention) so that the largest active ID
// ends up visible on every hot variable.
func (st *state) writePhase(i int) error {
	rec := PhaseRecord{
		Induction: i, Phase: "write", ActiveBefore: len(st.act),
		EventsBefore: len(st.sim.Execution().Events),
	}
	defer func() {
		rec.ActiveAfter = len(st.act)
		rec.EventsAfter = len(st.sim.Execution().Events)
		st.res.Phases = append(st.res.Phases, rec)
	}()
	for {
		if err := st.runAllToSpecial(); err != nil {
			return err
		}
		var z1, z2 []tso.ProcID
		for _, p := range st.act {
			op := st.sim.PendingOp(p)
			switch op.Kind {
			case tso.OpEndFence:
				z1 = append(z1, p)
			case tso.OpCommit:
				z2 = append(z2, p)
			case tso.OpCAS:
				return ErrUsesCAS
			default:
				return fmt.Errorf("adversary: write phase: p%d pending unexpected %v", p, op)
			}
		}
		if 2*len(z1) >= len(st.act) {
			// Case I: a majority completed their commits. Keep them,
			// execute the EndFence events: every survivor has now
			// completed fence i+1.
			if err := st.erase(z1, &rec); err != nil {
				return err
			}
			for _, p := range st.act {
				if _, err := st.sim.Step(p); err != nil {
					return fmt.Errorf("adversary: EndFence p%d: %w", p, err)
				}
			}
			return nil
		}
		// Group pending critical commits by target variable.
		byVar := make(map[int][]tso.ProcID)
		var varOrder []int
		for _, p := range z2 {
			vi := st.sim.PendingOp(p).Var.Index()
			if len(byVar[vi]) == 0 {
				varOrder = append(varOrder, vi)
			}
			byVar[vi] = append(byVar[vi], p)
		}
		sort.Ints(varOrder)
		var keep []tso.ProcID
		if len(varOrder)*len(varOrder) >= len(z2) {
			// Case II (low contention): one representative per variable,
			// thinned by an independent set of the access-conflict graph.
			reps := make([]tso.ProcID, 0, len(varOrder))
			for _, vi := range varOrder {
				ps := byVar[vi]
				sort.Slice(ps, func(a, b int) bool { return ps[a] < ps[b] })
				reps = append(reps, ps[0])
			}
			g := graphs.New(reps)
			for _, p := range reps {
				v := st.sim.PendingOp(p).Var
				if owner := v.Owner(); owner != tso.NoOwner {
					g.AddEdge(p, owner)
				}
				for _, q := range st.sim.AccessedBy(v) {
					if q != p {
						g.AddEdge(p, q)
					}
				}
			}
			keep = g.IndependentSet()
		} else {
			// Case III (high contention): keep everyone writing the most
			// popular variable and serialize their commits by ID.
			bestVar, bestLen := -1, -1
			for _, vi := range varOrder {
				if l := len(byVar[vi]); l > bestLen {
					bestVar, bestLen = vi, l
				}
			}
			keep = byVar[bestVar]
		}
		sort.Slice(keep, func(a, b int) bool { return keep[a] < keep[b] })
		if err := st.erase(keep, &rec); err != nil {
			return err
		}
		// Execute the commits in increasing ID order (st.act is sorted),
		// so the largest ID is the last writer of every hot variable.
		for _, p := range st.act {
			if _, err := st.sim.Step(p); err != nil {
				return fmt.Errorf("adversary: critical commit p%d: %w", p, err)
			}
		}
		rec.Iterations++
		st.crit++
		if float64(st.crit) > st.allowed() {
			return st.certificate("write", st.act[0], st.crit)
		}
		if err := st.checkSemiRegularOrdered(); err != nil {
			return err
		}
	}
}

// regularizePhase implements Lemma 8: the largest-ID active process runs to
// completion; before each of its critical events the at most one invisible
// process it could observe is erased.
func (st *state) regularizePhase(i int) error {
	rec := PhaseRecord{
		Induction: i, Phase: "regularize", ActiveBefore: len(st.act),
		EventsBefore: len(st.sim.Execution().Events),
	}
	defer func() {
		rec.ActiveAfter = len(st.act)
		rec.EventsAfter = len(st.sim.Execution().Events)
		st.res.Phases = append(st.res.Phases, rec)
	}()
	if len(st.act) == 0 {
		return &stopError{reason: StopActiveExhausted}
	}
	pmax := st.act[len(st.act)-1]
	for {
		// Run pmax until it terminates or is about to execute a critical
		// event. Short of both, it stopped at a CAS.
		if err := st.runSolo("regularize", pmax, soloRunnable); err != nil {
			return err
		}
		if !st.sim.Done(pmax) && !st.sim.PendingCritical(pmax) {
			return ErrUsesCAS
		}
		if msg, ok := st.sim.ProgramPanic(pmax); ok {
			return fmt.Errorf("adversary: p%d panicked: %s", pmax, msg)
		}
		if st.sim.Done(pmax) {
			// Case I: pmax finished its passage; H_{i+1} is regular.
			st.act = st.act[:len(st.act)-1]
			st.fin++
			return nil
		}
		if v := st.sim.ExclusionViolation(); v != nil {
			return &stopError{reason: StopViolation, violation: v}
		}
		// Case II: pmax is about to execute a critical event on u. Erase
		// the (at most one, Claim 4.3.2) invisible process visible on u.
		op := st.sim.PendingOp(pmax)
		u := op.Var
		if u == nil {
			return fmt.Errorf("adversary: regularize: critical pending op %v has no variable", op)
		}
		banned := make(map[tso.ProcID]bool)
		if w, ok := st.sim.LastWriter(u); ok && w != pmax && st.isActive(w) {
			banned[w] = true
		}
		if ow := u.Owner(); ow != tso.NoOwner && ow != pmax && st.isActive(ow) {
			banned[ow] = true
		}
		if len(banned) > 1 {
			return fmt.Errorf("adversary: Claim 4.3.2 violated: |Q|=%d for %s", len(banned), u)
		}
		if len(banned) == 1 {
			keep := make([]tso.ProcID, 0, len(st.act)-1)
			for _, p := range st.act {
				if !banned[p] {
					keep = append(keep, p)
				}
			}
			if err := st.erase(keep, &rec); err != nil {
				return err
			}
		}
		if _, err := st.sim.Step(pmax); err != nil {
			return fmt.Errorf("adversary: regularize critical event p%d: %w", pmax, err)
		}
		rec.Iterations++
		if c := st.sim.CurrentStats(pmax).Critical; float64(c) > st.allowed() {
			return st.certificate("regularize", pmax, c)
		}
		if err := st.checkWSet(pmax); err != nil {
			return err
		}
	}
}

// isActive reports whether p is in the current active set.
func (st *state) isActive(p tso.ProcID) bool {
	for _, q := range st.act {
		if q == p {
			return true
		}
	}
	return false
}

// checkRegular verifies Lemma 6's regularity invariant (G_k is regular).
func (st *state) checkRegular() error {
	if st.cfg.Check == CheckNone {
		return nil
	}
	opts := awareness.Options{CheckIN3: st.cfg.Check == CheckFull}
	if err := awareness.CheckRegular(st.sim, opts); err != nil {
		return fmt.Errorf("adversary: G_k not regular: %w", err)
	}
	return nil
}

// checkSemiRegularOrdered verifies Lemma 7's invariant (J_k is a
// semi-regular ordered execution).
func (st *state) checkSemiRegularOrdered() error {
	if st.cfg.Check == CheckNone {
		return nil
	}
	opts := awareness.Options{CheckIN3: st.cfg.Check == CheckFull}
	if err := awareness.CheckSemiRegular(st.sim, opts); err != nil {
		return fmt.Errorf("adversary: J_k not semi-regular: %w", err)
	}
	if err := awareness.CheckOrdered(st.sim); err != nil {
		return fmt.Errorf("adversary: J_k not ordered: %w", err)
	}
	return nil
}

// checkWSet verifies Lemma 8's invariant: W_k = Act \ {pmax} is an IN-set.
func (st *state) checkWSet(pmax tso.ProcID) error {
	if st.cfg.Check == CheckNone {
		return nil
	}
	w := make([]tso.ProcID, 0, len(st.act)-1)
	for _, p := range st.act {
		if p != pmax {
			w = append(w, p)
		}
	}
	opts := awareness.Options{CheckIN3: st.cfg.Check == CheckFull}
	if err := awareness.CheckINSet(st.sim, w, opts); err != nil {
		return fmt.Errorf("adversary: W_k not an IN-set: %w", err)
	}
	return nil
}

// checkInductionInvariants verifies the H_{i+1} conditions (a)-(d) of
// Section 4: regularity, equal critical counts, i finished processes, and i
// completed fences per active process.
func (st *state) checkInductionInvariants() error {
	if st.cfg.Check == CheckNone {
		return nil
	}
	if got := st.sim.NumFinished(); got != st.fin {
		return fmt.Errorf("adversary: |Fin| = %d, want %d", got, st.fin)
	}
	for _, p := range st.act {
		if got := st.sim.FencesCompleted(p); got != st.fin {
			return fmt.Errorf("adversary: p%d completed %d fences, want %d", p, got, st.fin)
		}
		if got := st.sim.CurrentStats(p).Critical; got != st.crit {
			return fmt.Errorf("adversary: p%d executed %d critical events, want l=%d", p, got, st.crit)
		}
		if st.sim.ModeOf(p) != tso.ModeRead {
			return fmt.Errorf("adversary: p%d not in read mode after H_%d", p, st.fin)
		}
	}
	opts := awareness.Options{CheckIN3: st.cfg.Check == CheckFull}
	if err := awareness.CheckRegular(st.sim, opts); err != nil {
		return fmt.Errorf("adversary: H_%d not regular: %w", st.fin, err)
	}
	return nil
}

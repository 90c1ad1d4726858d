package core

import (
	"context"
	"fmt"
	"math"

	"priceadaptive/internal/vmprog"

	"priceadaptive/internal/adversary"
	"priceadaptive/internal/bounds"
	"priceadaptive/internal/check"
	"priceadaptive/internal/mutex"
	"priceadaptive/internal/objects"
	"priceadaptive/internal/rmr"
	"priceadaptive/internal/tso"
)

// victimF is the adaptivity budget claimed for the synthetic read/write
// lock in construction experiments; the lock's measured cost is ~8 critical
// events solo plus ~7 per unit of contention, so this is a valid (linear)
// adaptivity function for it.
func victimF() bounds.AdaptivityFunc { return bounds.Affine{A: 16, C: 10} }

// E1Construction regenerates Figure 1: the phase structure of the inductive
// construction, with per-phase active-set sizes, iteration counts
// (the paper's s, t, m) and erasures, running against the adaptive
// read/write lock.
func E1Construction(ctx context.Context, n int) (*Report, error) {
	res, err := adversary.Run(ctx, adversary.Config{
		N:         n,
		Algorithm: mutex.Build(mutex.NewSynthetic),
		F:         victimF(),
		Check:     adversary.CheckInvariants,
	})
	if err != nil {
		return nil, fmt.Errorf("core: E1: %w", err)
	}
	rep := &Report{
		ID:     "E1",
		Title:  fmt.Sprintf("structure of the inductive construction (Figure 1), N=%d, victim=synthetic", n),
		Header: []string{"step i", "phase", "iterations", "|Act| before", "|Act| after", "erased"},
	}
	for _, ph := range res.Phases {
		rep.Rows = append(rep.Rows, []string{
			itoa(ph.Induction), ph.Phase, itoa(ph.Iterations),
			itoa(ph.ActiveBefore), itoa(ph.ActiveAfter), itoa(ph.Erased),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("stopped: %v; fences forced: %d; witness contention: %d; events: %d",
			res.Stopped, res.FencesForced, res.TotalContention, res.Events),
		"every read/write/regularize triple builds H_{i+1} from H_i; invariants of Lemmas 6-8 were asserted at every phase",
	)
	return rep, nil
}

// E2FencesForced regenerates the content of Theorem 1 / Theorem 3: for
// growing N, the number of fences the construction forces on the adaptive
// victim, alongside the Theorem 3 lower bound on the surviving active set.
func E2FencesForced(ctx context.Context, ns []int) (*Report, error) {
	rep := &Report{
		ID:     "E2",
		Title:  "fences forced by the construction vs N (Theorem 1), victim=synthetic",
		Header: []string{"N", "fences forced", "witness contention", "witness verified", "l_i (crit/active)", "|Act| remaining", "log2 Thm3 bound", "stop"},
	}
	for _, n := range ns {
		res, err := adversary.Run(ctx, adversary.Config{
			N:         n,
			Algorithm: mutex.Build(mutex.NewSynthetic),
			F:         victimF(),
			Check:     adversary.CheckNone,
		})
		if err != nil {
			return nil, fmt.Errorf("core: E2 N=%d: %w", n, err)
		}
		lb := bounds.Log2ActLowerBound(res.CriticalPerActive, res.InductionSteps, math.Log2(float64(n)))
		rep.Rows = append(rep.Rows, []string{
			itoa(n), itoa(res.FencesForced), itoa(res.TotalContention),
			fmt.Sprintf("%v", res.WitnessVerified),
			itoa(res.CriticalPerActive), itoa(res.ActiveRemaining),
			f1(lb), res.Stopped.String(),
		})
	}
	rep.Notes = append(rep.Notes,
		"expected shape: forced fences grow with N; each forced fence costs one finished process",
		"witness verified = the proof's final erasure was performed and re-checked: the extracted execution has exactly (fences+1) participants and the witness holds that many completed fences mid-passage",
		"the Theorem 3 bound is vacuous (negative) at these small N; the construction beats it because the synthetic victim is maximally cooperative",
	)
	return rep, nil
}

// E3Separation regenerates the separation of Corollary 1 empirically:
// fence complexity per passage as a function of contention k for the
// adaptive locks (growing) versus the non-adaptive constant-fence lock
// (flat) versus the Θ(log N) tournament.
func E3Separation(ctx context.Context, ks []int) (*Report, error) {
	rep := &Report{
		ID:     "E3",
		Title:  "fences/passage vs contention k (Corollary 1 separation)",
		Header: []string{"algorithm", "profile"},
	}
	for _, k := range ks {
		rep.Header = append(rep.Header, fmt.Sprintf("k=%d", k))
	}
	cases := []struct {
		name    string
		factory mutex.Factory
		profile string
	}{
		{"bakery", mutex.NewBakery, "non-adaptive, O(1) fences"},
		{"tournament", mutex.NewTournament, "non-adaptive, Θ(log N) fences"},
		{"caschain", mutex.NewCASChain, "adaptive, Θ(k) fences"},
		{"synthetic", mutex.NewSynthetic, "adaptive, Θ(k) fences"},
	}
	for _, c := range cases {
		row := []string{c.name, c.profile}
		for _, k := range ks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sim, err := tso.NewSimulator(tso.Config{N: k}, mutex.Build(c.factory))
			if err != nil {
				return nil, fmt.Errorf("core: E3 %s k=%d: %w", c.name, k, err)
			}
			acc := rmr.Attach(sim, rmr.ModelCCWriteBack)
			res, err := tso.Run(sim, tso.NewRoundRobin(), 50_000_000)
			if err != nil || !res.Completed || res.Violation != nil {
				sim.Kill()
				return nil, fmt.Errorf("core: E3 %s k=%d: %v (violation %v)", c.name, k, err, res.Violation)
			}
			row = append(row, itoa(acc.Summarize().MaxFences))
			sim.Kill()
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: bakery flat at 3 fences (its price: Θ(N) critical events); adaptive locks grow linearly in k; tournament grows with log N",
		"Corollary 1: no algorithm can combine the bakery's flat fence row with the adaptive locks' contention-dependent work",
	)
	return rep, nil
}

// E4LinearBound regenerates Corollary 2's table: fences forced by Theorem 1
// for a linear adaptivity function, against the closed-form
// (1/3c) log2 log2 N rate.
func E4LinearBound(log2Ns []float64) *Report {
	return boundReport("E4",
		"fence lower bound for linear adaptivity f(i)=c*i (Corollary 2)",
		bounds.Linear{C: 1}, log2Ns,
		func(l2n float64) float64 { return bounds.Corollary2Rate(1, l2n) },
		"expected shape: forced fences grow as Θ(log log N) and dominate the closed-form rate")
}

// E5ExpBound regenerates Corollary 3's table for exponential adaptivity.
func E5ExpBound(log2Ns []float64) *Report {
	return boundReport("E5",
		"fence lower bound for exponential adaptivity f(i)=2^(c*i) (Corollary 3)",
		bounds.Exponential{C: 1}, log2Ns,
		func(l2n float64) float64 { return bounds.Corollary3Rate(1, l2n) },
		"expected shape: forced fences grow as Θ(log log log N) and dominate the closed-form rate")
}

func boundReport(id, title string, fn bounds.AdaptivityFunc, log2Ns []float64, rate func(float64) float64, note string) *Report {
	rep := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"log2 N", "forced fences (Thm 1)", "closed-form rate"},
	}
	for _, row := range bounds.Table(fn, log2Ns, 500, rate) {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%g", row.Log2N), itoa(row.Forced), f2(row.Rate),
		})
	}
	rep.Notes = append(rep.Notes, note)
	return rep
}

// E6Reduction regenerates Lemma 9: the one-time mutex built from a counter
// (Algorithm 1) has the fence and RMR complexity of a single counter
// operation plus a constant, for each counter backend (direct CAS, locked,
// queue-backed, stack-backed).
func E6Reduction(ctx context.Context, n int) (*Report, error) {
	rep := &Report{
		ID:     "E6",
		Title:  fmt.Sprintf("Lemma 9 / Algorithm 1: one-time mutex from counter/queue/stack, N=%d", n),
		Header: []string{"backend", "max fences/passage", "mean fences", "max RMRs (CC-WB)", "mean RMRs"},
	}
	backends := []struct {
		name  string
		build tso.Build
	}{
		{"cas-counter", func(sim *tso.Simulator) (tso.Program, error) {
			l := objects.NewOneTimeMutex(sim.Memory(), n, objects.NewCASCounter(sim.Memory()))
			return passage(l), nil
		}},
		{"locked-counter(bakery)", func(sim *tso.Simulator) (tso.Program, error) {
			c, err := objects.NewLockedCounter(sim.Memory(), n, mutex.NewBakery)
			if err != nil {
				return nil, err
			}
			return passage(objects.NewOneTimeMutex(sim.Memory(), n, c)), nil
		}},
		{"queue(tas)", func(sim *tso.Simulator) (tso.Program, error) {
			l, err := objects.OneTimeFromQueue(sim.Memory(), n, mutex.NewTAS)
			if err != nil {
				return nil, err
			}
			return passage(l), nil
		}},
		{"stack(tas)", func(sim *tso.Simulator) (tso.Program, error) {
			l, err := objects.OneTimeFromStack(sim.Memory(), n, mutex.NewTAS)
			if err != nil {
				return nil, err
			}
			return passage(l), nil
		}},
		{"treiber-stack (lock-free)", func(sim *tso.Simulator) (tso.Program, error) {
			l, err := objects.OneTimeFromTreiber(sim.Memory(), n)
			if err != nil {
				return nil, err
			}
			return passage(l), nil
		}},
		{"ms-queue (lock-free)", func(sim *tso.Simulator) (tso.Program, error) {
			l, err := objects.OneTimeFromMSQueue(sim.Memory(), n)
			if err != nil {
				return nil, err
			}
			return passage(l), nil
		}},
	}
	for _, b := range backends {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sim, err := tso.NewSimulator(tso.Config{N: n}, b.build)
		if err != nil {
			return nil, fmt.Errorf("core: E6 %s: %w", b.name, err)
		}
		acc := rmr.Attach(sim, rmr.ModelCCWriteBack)
		res, err := tso.Run(sim, tso.NewRoundRobin(), 50_000_000)
		if err != nil || !res.Completed || res.Violation != nil {
			sim.Kill()
			return nil, fmt.Errorf("core: E6 %s: %v (violation %v)", b.name, err, res.Violation)
		}
		s := acc.Summarize()
		rep.Rows = append(rep.Rows, []string{
			b.name, itoa(s.MaxFences), f1(s.MeanFences), itoa(s.MaxRMRs), f1(s.MeanRMRs),
		})
		sim.Kill()
	}
	rep.Notes = append(rep.Notes,
		"each passage performs exactly one fetch&increment (dequeue/pop) plus O(1) extra fences, so lower bounds for one-time mutual exclusion transfer to counters, queues and stacks",
	)
	return rep, nil
}

func passage(l mutex.Lock) tso.Program {
	return func(p *tso.Proc) {
		l.Lock(p)
		p.CS()
		l.Unlock(p)
	}
}

// E7RMRModels regenerates the Section 2 cost-model comparison: RMRs per
// passage for representative locks under DSM, CC write-through and CC
// write-back.
func E7RMRModels(ctx context.Context, ns []int) (*Report, error) {
	rep := &Report{
		ID:     "E7",
		Title:  "RMRs/passage across machine models (Section 2)",
		Header: []string{"algorithm", "model"},
	}
	for _, n := range ns {
		rep.Header = append(rep.Header, fmt.Sprintf("N=%d", n))
	}
	algs := []struct {
		name    string
		factory mutex.Factory
	}{
		{"bakery", mutex.NewBakery},
		{"tournament", mutex.NewTournament},
		{"caschain", mutex.NewCASChain},
	}
	for _, a := range algs {
		for _, model := range rmr.Models() {
			row := []string{a.name, model.String()}
			for _, n := range ns {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				simModel := tso.CC
				if model == rmr.ModelDSM {
					simModel = tso.DSM
				}
				sim, err := tso.NewSimulator(tso.Config{N: n, Model: simModel}, mutex.Build(a.factory))
				if err != nil {
					return nil, fmt.Errorf("core: E7 %s %v N=%d: %w", a.name, model, n, err)
				}
				acc := rmr.Attach(sim, model)
				res, err := tso.Run(sim, tso.NewRoundRobin(), 100_000_000)
				if err != nil || !res.Completed || res.Violation != nil {
					sim.Kill()
					return nil, fmt.Errorf("core: E7 %s %v N=%d: %v (violation %v)", a.name, model, n, err, res.Violation)
				}
				row = append(row, f1(acc.Summarize().MeanRMRs))
				sim.Kill()
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: bakery Θ(N) in all models; tournament Θ(log N); caschain Θ(k)=Θ(N) here since all N contend",
	)
	return rep, nil
}

// E8FenceElision regenerates the motivation from [5] (fences are
// unavoidable): Peterson's algorithm with its fences elided violates mutual
// exclusion under TSO, while the fenced version survives the same
// schedules.
func E8FenceElision(ctx context.Context, seeds int) (*Report, error) {
	rep := &Report{
		ID:     "E8",
		Title:  "fence elision breaks Peterson under TSO ([5], laws of order)",
		Header: []string{"variant", "schedules tested", "violations found", "first violating schedule"},
	}
	run := func(factory mutex.Factory) (violations int, first string, err error) {
		// Deterministic delayed-commit schedule first.
		sim, err := tso.NewSimulator(tso.Config{N: 2}, mutex.Build(factory))
		if err != nil {
			return 0, "", err
		}
		res, err := tso.Run(sim, tso.NewRoundRobin(), 100000)
		if err != nil && res.Violation == nil && !sim.Done(0) {
			// Step budget without violation: treat as survived (the
			// fenceless lock can also livelock; only violations count).
			err = nil
		}
		if res.Violation != nil {
			violations++
			first = "round-robin (writes never committed)"
		}
		sim.Kill()
		for seed := int64(1); seed <= int64(seeds); seed++ {
			if err := ctx.Err(); err != nil {
				return violations, first, err
			}
			sim, err := tso.NewSimulator(tso.Config{N: 2, Passages: 2}, mutex.Build(factory))
			if err != nil {
				return violations, first, err
			}
			res, rerr := tso.Run(sim, tso.NewRandom(seed, 0.2), 500000)
			if rerr != nil && res.Violation == nil {
				// Budget exhaustion without violation: inconclusive
				// schedule; count as survived.
				rerr = nil
			}
			if res.Violation != nil {
				violations++
				if first == "" {
					first = fmt.Sprintf("random seed %d", seed)
				}
			}
			sim.Kill()
		}
		return violations, first, nil
	}
	for _, v := range []struct {
		name    string
		factory mutex.Factory
	}{
		{"peterson (fenced)", mutex.NewPeterson},
		{"peterson-nofence", mutex.NewPetersonNoFences},
	} {
		violations, first, err := run(v.factory)
		if err != nil {
			return nil, fmt.Errorf("core: E8 %s: %w", v.name, err)
		}
		if first == "" {
			first = "-"
		}
		rep.Rows = append(rep.Rows, []string{v.name, itoa(seeds + 1), itoa(violations), first})
	}
	rep.Notes = append(rep.Notes,
		"expected shape: zero violations with fences, violations without - store-load reordering lets both processes read the other's stale flag",
	)
	return rep, nil
}

// E9PSOSeparation regenerates the TSO/PSO separation of the paper's
// Section 6 discussion, in two halves:
//
//   - theory: by Inequality 3 (Attiya-Hendler-Woelfel), a PSO read/write
//     algorithm with r = log2 N RMRs needs ~log N / log log N fences, while
//     TSO admits O(1) fences at O(log N) RMRs [6];
//   - practice: the bakery variant without its ticket-publication fence is
//     verified exclusion-safe under every TSO schedule by the bounded model
//     checker, and broken by a PSO schedule that commits the choosing flag
//     before the ticket.
func E9PSOSeparation(ctx context.Context, log2Ns []float64, n int) (*Report, error) {
	rep := &Report{
		ID:     "E9",
		Title:  "TSO vs PSO separation (Section 6 discussion, Inequality 3)",
		Header: []string{"log2 N", "PSO min fences (r=log2 N)", "PSO min fences (r=log2^2 N)", "TSO fences [6]"},
	}
	renderFences := func(f int, maxF int) string {
		if f > maxF {
			return "impossible"
		}
		return itoa(f)
	}
	const maxF = 1 << 20
	for _, l2n := range log2Ns {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%g", l2n),
			renderFences(bounds.MinPSOFences(l2n, l2n, maxF), maxF),
			renderFences(bounds.MinPSOFences(l2n*l2n, l2n, maxF), maxF),
			"O(1)",
		})
	}

	// Empirical half, machine-checked COMPLETELY on the fast VM engine:
	// the standard bakery (fenced doorway) is exclusion-safe under every
	// TSO schedule of one passage per process, and broken under PSO, where
	// the doorway's number/choosing writes can become visible out of issue
	// order before the fence drains them.
	prog, err := vmprog.Bakery(n, false)
	if err != nil {
		return nil, fmt.Errorf("core: E9 program: %w", err)
	}
	tsoEng, err := vmprog.NewEngineOrdering(prog, n, tso.TSO)
	if err != nil {
		return nil, err
	}
	tsoRes, err := tsoEng.Check(ctx, vmprog.ParallelOpts{})
	if err != nil {
		return nil, fmt.Errorf("core: E9 TSO check: %w", err)
	}
	psoEng, err := vmprog.NewEngineOrdering(prog, n, tso.PSO)
	if err != nil {
		return nil, err
	}
	psoRes, err := psoEng.Check(ctx, vmprog.ParallelOpts{})
	if err != nil {
		return nil, fmt.Errorf("core: E9 PSO check: %w", err)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("bakery under TSO: violation=%v, complete=%v, states=%d (exhaustive over ALL schedules)",
			tsoRes.Violation, tsoRes.Complete, tsoRes.States),
		fmt.Sprintf("bakery under PSO: violation=%v (schedule length %d), states=%d",
			psoRes.Violation, len(psoRes.Schedule), psoRes.States),
		"expected shape: the same algorithm, fences placed for TSO, is exclusion-safe under every TSO schedule and broken by PSO's store-store reordering",
		"r = log2 N RMRs is infeasible under PSO at ANY fence count (f*log2(r/f)+1 < log2 N for all f <= r): the (O(1) fences, O(log N) RMRs) point of [6] exists only under TSO",
		"corrected finding: the bakery variant WITHOUT its ticket-publication fence is unsafe even under TSO (an unpublished ticket lets a competitor draw an equal ticket and win the tie-break); see internal/vmprog tests",
	)
	if tsoRes.Violation || !tsoRes.Complete {
		return nil, fmt.Errorf("core: E9: bakery TSO verification failed: violation=%v complete=%v", tsoRes.Violation, tsoRes.Complete)
	}
	if !psoRes.Violation {
		return nil, fmt.Errorf("core: E9: bakery did not violate under PSO")
	}
	return rep, nil
}

// E10Adaptivity measures the adaptivity function of each lock directly,
// against the paper's definition: an algorithm is f-adaptive when the
// critical events of a passage are bounded by f(total contention),
// independent of the number N of processes sharing the lock. For each lock
// and each participant count k, only k of the N processes run; the table
// reports the maximum critical events of any passage. Adaptive rows must be
// identical across N; non-adaptive rows grow with N.
func E10Adaptivity(ctx context.Context, ns []int, ks []int) (*Report, error) {
	rep := &Report{
		ID:     "E10",
		Title:  "measured adaptivity functions (Definitions, Section 1/2)",
		Header: []string{"algorithm", "N"},
	}
	for _, k := range ks {
		rep.Header = append(rep.Header, fmt.Sprintf("k=%d", k))
	}
	algs := []struct {
		name    string
		factory mutex.Factory
	}{
		{"bakery", mutex.NewBakery},
		{"yanganderson", mutex.NewYangAnderson},
		{"caschain", mutex.NewCASChain},
		{"synthetic", mutex.NewSynthetic},
	}
	for _, a := range algs {
		for _, n := range ns {
			row := []string{a.name, itoa(n)}
			for _, k := range ks {
				if k > n {
					row = append(row, "-")
					continue
				}
				crit, err := maxCriticalWithParticipants(ctx, a.factory, n, k)
				if err != nil {
					return nil, fmt.Errorf("core: E10 %s n=%d k=%d: %w", a.name, n, k, err)
				}
				row = append(row, itoa(crit))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Notes = append(rep.Notes,
		"cells are max critical events per passage when only k of N processes participate (lock-step schedule)",
		"expected shape: adaptive locks (caschain, synthetic) have identical rows for both N - their cost is a function of k alone; bakery and yanganderson scale with N",
	)
	return rep, nil
}

// maxCriticalWithParticipants runs processes 0..k-1 of an N-process lock in
// lock-step until all complete and returns the max critical events of any
// passage.
func maxCriticalWithParticipants(ctx context.Context, f mutex.Factory, n, k int) (int, error) {
	sim, err := tso.NewSimulator(tso.Config{N: n}, mutex.Build(f))
	if err != nil {
		return 0, err
	}
	defer sim.Kill()
	acc := rmr.Attach(sim, rmr.ModelCCWriteBack)
	for guard := 0; ; guard++ {
		if guard > 100_000_000 {
			return 0, fmt.Errorf("lock-step run did not finish")
		}
		if guard&0xffff == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		progressed := false
		for id := tso.ProcID(0); id < tso.ProcID(k); id++ {
			if sim.Done(id) {
				continue
			}
			if _, err := sim.Step(id); err != nil {
				return 0, err
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}
	if v := sim.ExclusionViolation(); v != nil {
		return 0, fmt.Errorf("exclusion violated: %v", v)
	}
	max := 0
	for id := tso.ProcID(0); id < tso.ProcID(k); id++ {
		for _, ps := range acc.Passages(id) {
			if ps.Critical > max {
				max = ps.Critical
			}
		}
	}
	return max, nil
}

// fastReduce is the reduction mode E11's fast-engine runs verify under;
// cmd/priceadaptive's -reduce flag overrides the default. Every mode is
// sound (the registry-wide differential harness in internal/check holds
// them to identical verdicts), so the knob only trades exploration size
// against per-state canonicalization work.
var fastReduce = check.ReduceFull

// SetFastReduce selects the fast-engine reduction mode for subsequent
// experiment runs.
func SetFastReduce(mode check.ReduceMode) { fastReduce = mode }

// fastWorkers is the frontier engine's worker count in E11's runs (0: one
// worker); results are identical for every count. cmd/priceadaptive's
// -workers flag overrides the default.
var fastWorkers = 0

// SetFastWorkers selects the fast-engine worker count for subsequent
// experiment runs.
func SetFastWorkers(n int) { fastWorkers = n }

// E11VerificationMatrix runs the fast VM engine's complete model checker
// over every VM lock program under both memory orderings, producing the
// repository's verification record: which algorithms are exclusion-safe
// under which ordering, each verdict either an exhaustive proof over the
// full reachable state space or a concrete counterexample schedule.
func E11VerificationMatrix(ctx context.Context) (*Report, error) {
	rep := &Report{
		ID:     "E11",
		Title:  "model-checking verification matrix (fast VM engine, N=2, one passage)",
		Header: []string{"program", "ordering", "verdict", "states", "schedule"},
	}
	programs := []*vmprog.Program{
		vmprog.MustPeterson(true),
		vmprog.MustPeterson(false),
		vmprog.MustDekker(true),
		vmprog.MustDekker(false),
		vmprog.MustTAS(),
		vmprog.MustBakery(2, false),
		vmprog.MustBakery(2, true),
		vmprog.MustLamportFast(2),
	}
	for _, p := range programs {
		for _, ord := range []tso.Ordering{tso.TSO, tso.PSO} {
			ordering := ord.String()
			res, err := check.Verify(ctx, p, 2,
				check.WithOrdering(ord),
				check.WithMaxStates(4_000_000),
				check.WithReduce(fastReduce),
				check.WithWorkers(fastWorkers))
			if err != nil {
				return nil, fmt.Errorf("core: E11 %s/%s: %w", p.Name, ordering, err)
			}
			verdict := "SAFE (exhaustive)"
			schedule := "-"
			switch {
			case res.Violation:
				verdict = "VIOLATED"
				schedule = fmt.Sprintf("%d decisions", len(res.Schedule))
			case !res.Complete:
				verdict = "safe within budget (partial)"
			}
			rep.Rows = append(rep.Rows, []string{p.Name, ordering, verdict, itoa(res.States), schedule})
		}
	}
	rep.Notes = append(rep.Notes,
		"SAFE (exhaustive) means every reachable state of the program under that ordering was visited without two CS events becoming enabled together",
		"expected shape: fenced locks safe under TSO; fence-free variants violated under TSO; bakery's TSO fences do not survive PSO (its doorway relies on store order before the fence); TAS (CAS-based) safe under both",
	)
	return rep, nil
}

package vmprog

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"priceadaptive/internal/tso"
)

// bpath is an immutable cons cell of real-frame decisions. Bitstate mode has
// no breadcrumb maps to reconstruct schedules from, so frontier items carry
// their whole path as a shared-prefix list: memory is one cell per tree edge
// still reachable from a live frontier item, and dead layers are collected.
type bpath struct {
	d    tso.Decision
	prev *bpath
}

func (p *bpath) schedule() []tso.Decision {
	var rev []tso.Decision
	for ; p != nil; p = p.prev {
		rev = append(rev, p.d)
	}
	out := make([]tso.Decision, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// bitem is a bitstate frontier entry: a state, its encoding held in its
// queue's frontier arena, and the path that reached it.
type bitem struct {
	h    uint64
	ref  aref
	cum  uint16
	path *bpath
}

// mix64 is the splitmix64 finalizer, deriving the second bit position from
// the state hash so the two probes are (near-)independent.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bgraph is the shared state of a bitstate run: a double-hashed atomic bit
// array in place of fingerprint seen-sets, plus sharded next-layer queues.
type bgraph struct {
	words  []atomic.Uint64
	mask   uint64
	states atomic.Int64
	queues []bqueue
	stop   atomic.Bool
	mu     sync.Mutex
	err    error // guarded by mu
}

type bqueue struct {
	mu   sync.Mutex
	next frontier[bitem] // guarded by mu
}

func (g *bgraph) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

// testSet sets the bit and reports whether it was already set.
func (g *bgraph) testSet(pos uint64) bool {
	w := &g.words[pos>>6]
	bit := uint64(1) << (pos & 63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|bit) {
			return false
		}
	}
}

// seen reports whether both probe bits for h are set (without setting them).
func (g *bgraph) seen(h uint64) bool {
	p1, p2 := h&g.mask, mix64(h)&g.mask
	return g.words[p1>>6].Load()&(1<<(p1&63)) != 0 &&
		g.words[p2>>6].Load()&(1<<(p2&63)) != 0
}

// claim marks h seen and reports whether at least one probe bit was clear,
// that is whether the state is new and the caller must enqueue it. Two
// workers racing on the same fresh state may both claim it (a bounded
// duplication, resolved when the copies' successors all hash seen); a
// layer's outcome is therefore not bit-for-bit deterministic across worker
// counts, which the Probabilistic result flag already announces.
func (g *bgraph) claim(h uint64) bool {
	seen1 := g.testSet(h & g.mask)
	seen2 := g.testSet(mix64(h) & g.mask)
	if seen1 && seen2 {
		return false
	}
	g.states.Add(1)
	return true
}

// enqueue adds a claimed state with encoding enc to its queue for the next
// layer.
func (g *bgraph) enqueue(it bitem, enc []uint64) {
	q := &g.queues[it.h%uint64(len(g.queues))]
	q.mu.Lock()
	it.ref = q.next.enc.put(enc)
	q.next.items = append(q.next.items, it)
	q.mu.Unlock()
}

// bworker is one bitstate exploration worker.
type bworker struct {
	x     expander
	g     *bgraph
	ctx   context.Context // padvet:allow ctx-field run root: a worker lives for one check call
	ticks int

	transitions int
	ampleSteps  int

	viol     bool
	violH    uint64
	violPath *bpath
}

// expand explores one state of the current layer, its encoding read from a.
func (w *bworker) expand(it bitem, a *arena) {
	w.ticks++
	if w.ticks&0xff == 0 {
		if err := w.ctx.Err(); err != nil {
			w.g.fail(err)
			return
		}
	}
	x := &w.x
	x.load(a.get(it.ref))
	if x.eng.Violated(&x.par) {
		if !w.viol || it.h < w.violH {
			w.viol, w.violH, w.violPath = true, it.h, it.path
		}
		return
	}
	// With only bits for identity there is no discovery layer to freeze,
	// so any seen ample successor triggers the proviso. Over-triggering
	// costs reduction, never soundness: a truly visited successor always
	// reads seen.
	ample, err := x.successors(w.g.seen)
	if err != nil {
		w.g.fail(fmt.Errorf("vmprog: bitstate check: %w", err))
		return
	}
	if ample {
		w.ampleSteps++
	}
	w.transitions += len(x.kids)
	for k := range x.kids {
		h := x.kids[k].h
		if !w.g.claim(h) {
			continue
		}
		d, cum := x.route(k, it.cum)
		w.g.enqueue(bitem{h: h, cum: cum, path: &bpath{d: d, prev: it.path}}, x.kidEnc(k))
	}
}

// checkBitstate is CheckParallel's bitstate mode: the same layered frontier
// search with the sharded fingerprint seen-sets replaced by a double-hashed
// bit array sized 1<<BitstateBits bits. The result always carries
// Probabilistic=true.
func (e *Engine) checkBitstate(ctx context.Context, o ParallelOpts) (*CheckResult, error) {
	workers, maxStates := parallelWorkers(o)
	bits := o.BitstateBits
	if bits < 10 {
		bits = 10
	}
	if bits > 36 {
		bits = 36
	}
	size := uint64(1) << bits
	g := &bgraph{
		words:  make([]atomic.Uint64, size/64),
		mask:   size - 1,
		queues: make([]bqueue, workers),
	}
	ws := make([]*bworker, workers)
	for i := range ws {
		ws[i] = &bworker{x: expander{eng: e.workerClone()}, g: g, ctx: ctx}
	}
	res := &CheckResult{Complete: true, Probabilistic: true}
	x := &ws[0].x
	x.root()
	g.claim(x.kids[0].h)
	g.enqueue(bitem{h: x.kids[0].h, cum: x.kids[0].perm}, x.kidEnc(0))
	var fronts []frontier[bitem]
	for {
		done := fronts
		fronts = make([]frontier[bitem], len(g.queues))
		for i := range g.queues {
			var d frontier[bitem]
			if done != nil {
				d = done[i]
			}
			fronts[i] = g.queues[i].next.rotate(d) // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
		}
		if emptyFronts(fronts) {
			break
		}
		runLayer(workers, fronts, &g.stop, func(wi int, it bitem, a *arena) { ws[wi].expand(it, a) }, nil)
		if g.err != nil { // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
			return nil, g.err // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
		}
		viol, violH := false, uint64(0)
		var violPath *bpath
		for _, w := range ws {
			res.Transitions += w.transitions
			res.AmpleSteps += w.ampleSteps
			w.transitions, w.ampleSteps = 0, 0
			if w.viol && (!viol || w.violH < violH) {
				viol, violH, violPath = true, w.violH, w.violPath
			}
			w.viol = false
		}
		res.States = int(g.states.Load())
		if viol {
			res.Violation = true
			res.Schedule = violPath.schedule()
			res.Complete = false
			return res, nil
		}
		if res.States > maxStates {
			res.Complete = false
			return res, nil
		}
	}
	res.States = int(g.states.Load())
	return res, nil
}

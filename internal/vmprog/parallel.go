package vmprog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"priceadaptive/internal/tso"
)

// ParallelOpts configures the frontier engine (Check and CheckRecoverable).
type ParallelOpts struct {
	// Workers is the worker (and seen-set shard) count; 0 means one worker,
	// and a negative count is an error. Results are identical for every
	// worker count: the layered search with the frozen-layer proviso makes
	// the explored graph, the counts and the reconstructed witnesses a
	// function of the program alone, not of scheduling.
	Workers int
	// MaxStates bounds the exploration; <= 0 means 1<<20. The budget is
	// checked at layer barriers, so an incomplete run may overshoot by up
	// to one layer (deterministically).
	MaxStates int
}

// encDec packs a real-frame decision into a breadcrumb word: process id in
// bits 0-7, commit flag in bit 8, crash flag in bit 9, VarPlus1 in bits 10+.
func encDec(d tso.Decision) uint32 {
	v := uint32(d.P) & 0xff
	if d.Commit {
		v |= 1 << 8
	}
	if d.Crash {
		v |= 1 << 9
	}
	v |= uint32(d.VarPlus1) << 10
	return v
}

// rootDec marks the root breadcrumb (no inbound decision).
const rootDec = ^uint32(0)

func decDec(v uint32) tso.Decision {
	return tso.Decision{
		P:        tso.ProcID(v & 0xff),
		Commit:   v&(1<<8) != 0,
		Crash:    v&(1<<9) != 0,
		VarPlus1: int(v >> 10),
	}
}

// pitem is a frontier entry: a state awaiting expansion in the next layer,
// its encoding held in its shard's frontier arena.
type pitem struct {
	h   uint64
	ref aref
	id  uint32 // global dense id (recoverable mode)
	// cum maps real slots to current slots, as an index into the
	// reducer's permutations (0 = identity).
	cum uint16
}

// Breadcrumb columns hold crumbChunk entries per chunk. The size bounds the
// unused tail of a column's last chunk, and keeps a shard of about a
// thousand states inside the first one.
const (
	crumbShift = 11
	crumbChunk = 1 << crumbShift
)

// column is a dense breadcrumb column indexed by shard-local id. Its first
// chunk grows as a plain slice does, so a small graph allocates what a slice
// would; every later chunk is allocated at its full size, so a large column
// never copies what it holds.
type column[T uint32 | uint64] struct {
	chunks [][]T // every chunk but the last holds crumbChunk entries
}

// len returns the number of entries.
func (c *column[T]) len() int {
	k := len(c.chunks)
	if k == 0 {
		return 0
	}
	return (k-1)<<crumbShift + len(c.chunks[k-1])
}

// at returns the entry of id i.
func (c *column[T]) at(i uint32) *T { return &c.chunks[i>>crumbShift][i&(crumbChunk-1)] }

// push appends v.
func (c *column[T]) push(v T) {
	k := len(c.chunks) - 1
	if k < 0 {
		c.chunks = append(c.chunks, nil)
		k = 0
	} else if len(c.chunks[k]) == crumbChunk {
		c.chunks = append(c.chunks, make([]T, 0, crumbChunk))
		k++
	}
	c.chunks[k] = append(c.chunks[k], v)
}

// pshard is one hash partition of the seen-set: a fingerprint index over
// dense breadcrumb columns, enough to reconstruct an exact real-frame
// schedule into every state (parent fingerprint and inbound decision),
// indexed by the shard-local id the index maps each fingerprint to. States
// themselves are dropped once expanded; only the breadcrumbs persist. The
// owning worker drains the shard's next-queue first; other workers steal
// chunks when theirs run dry.
type pshard struct {
	mu     sync.Mutex
	index  fpindex        // guarded by mu
	parent column[uint64] // guarded by mu; local id -> parent fingerprint
	dec    column[uint32] // guarded by mu; local id -> inbound real-frame decision
	next   frontier       // guarded by mu
	// base is the shard's state count when the current layer began: a
	// state discovered in this layer sits at next.items[id-base].
	base int // guarded by mu
	// idx and stride make global dense ids, local*stride + idx; they are
	// fixed at construction.
	idx, stride uint32
}

// pending is a successor staged in a worker's outbox for its owning shard.
type pending struct {
	h, parent uint64
	dec       uint32 // real-frame decision from parent
	slot      uint32 // the edge-record word its dense id goes to (recoverable mode)
	end       uint32 // end of the encoding in the outbox's enc
	cum       uint16
}

// outbox holds one worker's pending successors for one shard, their
// encodings back to back. Its slices are reused from batch to batch.
type outbox struct {
	items []pending
	enc   []uint64
}

// add stages p, whose encoding is enc.
func (ob *outbox) add(p pending, enc []uint64) {
	ob.enc = append(ob.enc, enc...)
	p.end = uint32(len(ob.enc))
	ob.items = append(ob.items, p)
}

// encOf returns the encoding of the i-th pending successor.
func (ob *outbox) encOf(i int) []uint64 {
	start := uint32(0)
	if i > 0 {
		start = ob.items[i-1].end
	}
	return ob.enc[start:ob.items[i].end]
}

// Batching of successor inserts: a worker offers an outbox to its shard
// (TryLock) once it holds batchMin successors, and keeps expanding if the
// shard is busy; at batchCap it waits for the lock. So at most batchCap
// successors are pending per (worker, shard) pair.
const (
	batchMin = 64
	batchCap = 256
)

// Edge records are stored in blocks of recBlock words, allocated at that
// size: the log never copies what it holds. A slot is a word's position in
// the log, block<<recShift | offset, so a uint32 slot reaches maxRecBlocks
// blocks.
const (
	recShift     = 14
	recBlock     = 1 << recShift
	maxRecBlocks = 1 << (32 - recShift)
)

// edgeRecs is a worker's share of the recoverability graph, grouped by
// parent: one record [from id, k, to_1 … to_k] per state the worker
// expanded, where from is the state's global dense id and the to_i are its
// k successors' ids. A record never straddles two blocks. The worker
// reserves a record before it stages the successors, each pending entry
// carries its slot, and the insert that assigns the successor's id writes
// it there. A worker inserts only its own outboxes, so every record has
// one writer.
type edgeRecs struct {
	blocks [][]uint32
}

// reserve appends a record for from with k successors and returns the slot
// of its first successor word. It fails when the record would not fit a
// block or its slots would overflow a uint32.
func (r *edgeRecs) reserve(from uint32, k int) (uint32, error) {
	need := 2 + k
	if need > recBlock {
		return 0, fmt.Errorf("vmprog: recoverability check: a state with %d successors exceeds an edge-record block", k)
	}
	last := len(r.blocks) - 1
	if last < 0 || recBlock-len(r.blocks[last]) < need {
		if len(r.blocks) == maxRecBlocks {
			return 0, errors.New("vmprog: recoverability check: edge records overflow their 32-bit slot index")
		}
		r.blocks = append(r.blocks, make([]uint32, 0, recBlock))
		last++
	}
	b := r.blocks[last]
	off := len(b)
	r.blocks[last] = append(b, from, uint32(k))[:off+need]
	return uint32(last)<<recShift | uint32(off+2), nil
}

// set writes successor id to at slot.
func (r *edgeRecs) set(slot, to uint32) { r.blocks[slot>>recShift][slot&(recBlock-1)] = to }

// predIndex builds the predecessor index of the dense ids 0..n-1 from the
// workers' edge records: the predecessors of j are preds[start[j]:start[j+1]].
// It is a counting sort whose count column is its own write cursor: after
// the counting pass start[j] ends j's range, and placing an edge moves it
// down by one, so that it starts j's range once every edge is placed. The
// placing pass drops each record block once it has read it.
func predIndex(n uint32, logs []*edgeRecs) (start, preds []uint32, err error) {
	start = make([]uint32, n+1)
	edges := 0
	for _, r := range logs {
		for _, b := range r.blocks {
			for i := 0; i < len(b); {
				k := int(b[i+1])
				for _, j := range b[i+2 : i+2+k] {
					start[j]++
				}
				edges += k
				i += 2 + k
			}
		}
	}
	if uint64(edges) > uint64(^uint32(0)) {
		return nil, nil, fmt.Errorf("vmprog: recoverability check: %d edges overflow the 32-bit predecessor index", edges)
	}
	for j := uint32(1); j <= n; j++ {
		start[j] += start[j-1]
	}
	preds = make([]uint32, edges)
	for _, r := range logs {
		for bi, b := range r.blocks {
			for i := 0; i < len(b); {
				from, k := b[i], int(b[i+1])
				for _, j := range b[i+2 : i+2+k] {
					start[j]--
					preds[start[j]] = from
				}
				i += 2 + k
			}
			r.blocks[bi] = nil
		}
		r.blocks = nil
	}
	return start, preds, nil
}

// insertLocked records the successors pending in ob, all discovered in
// layer, and empties ob. An unseen state gets the next local id, its
// breadcrumbs and a next-queue entry holding a copy of its encoding. When
// the state was already discovered in the same layer from a different
// parent, the breadcrumb with the smallest (parent fingerprint, decision)
// pair wins: insertion order within a layer is scheduling-dependent, the
// tie-break makes the surviving breadcrumb (and with it every reconstructed
// witness) deterministic again. With recs non-nil each successor's global
// dense id is written to its slot there.
func (sh *pshard) insertLocked(ob *outbox, layer int32, recs *edgeRecs) {
	for i := range ob.items {
		p := &ob.items[i]
		slot, found := sh.index.find(p.h)
		var local uint32
		if found {
			var l int32
			local, l = sh.index.at(slot)
			if l == layer {
				pp, pd := sh.parent.at(local), sh.dec.at(local)
				if p.parent < *pp || (p.parent == *pp && p.dec < *pd) {
					*pp, *pd = p.parent, p.dec
					// The queued frontier entry must carry the winning
					// route's cumulative permutation: successor decisions
					// are translated to the real frame through it, and a
					// schedule whose prefix follows one route but whose
					// suffix was translated through another lands in a
					// symmetric image instead of the witnessed state.
					sh.next.items[int(local)-sh.base].cum = p.cum
				}
			}
		} else {
			local = uint32(sh.parent.len())
			sh.index.putAt(slot, p.h, local, layer)
			sh.parent.push(p.parent)
			sh.dec.push(p.dec)
			sh.next.items = append(sh.next.items, pitem{
				h: p.h, ref: sh.next.enc.put(ob.encOf(i)), id: local*sh.stride + sh.idx, cum: p.cum,
			})
		}
		if recs != nil {
			recs.set(p.slot, local*sh.stride+sh.idx)
		}
	}
	ob.items, ob.enc = ob.items[:0], ob.enc[:0]
}

// pgraph is the shared exploration state of one parallel run.
type pgraph struct {
	shards []pshard
	recov  bool
	stop   atomic.Bool
	mu     sync.Mutex
	err    error // guarded by mu
}

func newPGraph(shards int, recov bool) *pgraph {
	g := &pgraph{shards: make([]pshard, shards), recov: recov}
	for i := range g.shards {
		g.shards[i].idx, g.shards[i].stride = uint32(i), uint32(shards)
	}
	return g
}

func (g *pgraph) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

// failed returns the error that stopped the run, if any.
func (g *pgraph) failed() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// shard returns the shard that owns fingerprint h.
func (g *pgraph) shard(h uint64) *pshard { return &g.shards[h%uint64(len(g.shards))] }

// layerOf returns the discovery layer of the state with fingerprint h, if
// it has been recorded.
func (g *pgraph) layerOf(h uint64) (int32, bool) {
	sh := g.shard(h)
	sh.mu.Lock()
	_, layer, ok := sh.index.get(h)
	sh.mu.Unlock()
	return layer, ok
}

// crumb returns the breadcrumb of the state with fingerprint h.
func (g *pgraph) crumb(h uint64) (parent uint64, dec uint32, ok bool) {
	sh := g.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, _, ok := sh.index.get(h)
	if !ok {
		return 0, 0, false
	}
	return *sh.parent.at(id), *sh.dec.at(id), true
}

// barrier closes a layer, with every worker parked and every outbox empty:
// it detaches every shard's next-queue as the next layer's fronts, handing
// each shard the storage of done, the fronts just expanded (nil before the
// first layer). It returns the fronts and the number of states recorded.
func (g *pgraph) barrier(done []frontier) ([]frontier, int) {
	fronts := make([]frontier, len(g.shards))
	states := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		var d frontier
		if done != nil {
			d = done[i]
		}
		fronts[i] = sh.next.rotate(d)
		sh.base = sh.parent.len()
		states += sh.base
		sh.mu.Unlock()
	}
	return fronts, states
}

// ids returns one more than the largest global dense id assigned.
func (g *pgraph) ids() uint32 {
	n := uint32(0)
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		if c := uint32(sh.parent.len()); c > 0 {
			n = max(n, (c-1)*sh.stride+sh.idx+1)
		}
		sh.mu.Unlock()
	}
	return n
}

// stuck returns the (layer, fingerprint)-minimal recorded state whose
// global dense id coreach does not mark, if there is one.
func (g *pgraph) stuck(coreach []bool) (h uint64, ok bool) {
	var hLayer int32
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		sh.index.each(func(fp uint64, id uint32, layer int32) {
			if !coreach[id*sh.stride+sh.idx] && (!ok || layer < hLayer || (layer == hLayer && fp < h)) {
				h, hLayer, ok = fp, layer, true
			}
		})
		sh.mu.Unlock()
	}
	return h, ok
}

// insertRoot records the search's root, the canonical initial state, as
// layer 0.
func (g *pgraph) insertRoot(x *expander) {
	x.root()
	rh := x.kids[0].h
	var ob outbox
	ob.add(pending{h: rh, parent: rh, dec: rootDec, cum: x.kids[0].perm}, x.kidEnc(0))
	sh := g.shard(rh)
	sh.mu.Lock()
	sh.insertLocked(&ob, 0, nil)
	sh.mu.Unlock()
}

// emptyFronts reports whether a layer has nothing to expand.
func emptyFronts(fronts []frontier) bool {
	for _, f := range fronts {
		if len(f.items) > 0 {
			return false
		}
	}
	return true
}

// path reconstructs the real-frame schedule into the state with hash h by
// walking breadcrumbs root-ward. Breadcrumb layers strictly decrease along
// the walk, so it terminates at the root (layer 0).
func (g *pgraph) path(h uint64) []tso.Decision {
	var rev []tso.Decision
	for {
		parent, dec, ok := g.crumb(h)
		if !ok || dec == rootDec {
			break
		}
		rev = append(rev, decDec(dec))
		h = parent
	}
	out := make([]tso.Decision, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// workerClone builds an engine sharing the (immutable) program, facts and
// symmetry group but owning private reducer scratch, so workers
// canonicalize concurrently.
func (e *Engine) workerClone() *Engine {
	ne := &Engine{prog: e.prog, n: e.n, ord: e.ord, facts: e.facts}
	if e.red != nil {
		ne.red = newReducer(ne, e.facts, e.red.g)
	}
	return ne
}

// shardStats counts how a frontier run's successors reached their seen-set
// shards. The white-box shard tests read them to see cross-shard routing
// and batching actually happen.
type shardStats struct {
	crossShard int // successors routed to a shard other than their parent's
	flushes    int // batches a worker inserted mid-layer
	deferrals  int // TryLocks at a full batch that found the shard busy
}

// take adds o's counts to s and zeroes o.
func (s *shardStats) take(o *shardStats) {
	s.crossShard += o.crossShard
	s.flushes += o.flushes
	s.deferrals += o.deferrals
	*o = shardStats{}
}

// pworker is one exploration worker. Counters and candidates are merged (and
// reset) by the coordinator at every layer barrier.
type pworker struct {
	x     expander
	g     *pgraph
	ctx   context.Context // padvet:allow ctx-field run root: a worker lives for one Check call
	layer int32
	ticks int
	out   []outbox // pending successors, one outbox per shard

	transitions int
	ampleSteps  int
	shardStats

	viol  bool
	violH uint64

	// Recoverable mode.
	crash    CrashOpts
	recs     edgeRecs
	doneIDs  []uint32
	fault    bool
	faultH   uint64
	faultDec uint32
	faultErr string
}

func newPWorker(ctx context.Context, e *Engine, g *pgraph) *pworker {
	return &pworker{x: expander{eng: e.workerClone()}, g: g, ctx: ctx, out: make([]outbox, len(g.shards))}
}

// records returns the edge records the inserts of this worker's successors
// write to: nil in crash-free mode, which builds no graph.
func (w *pworker) records() *edgeRecs {
	if !w.g.recov {
		return nil
	}
	return &w.recs
}

func (w *pworker) tick() bool {
	w.ticks++
	if w.ticks&0xff == 0 {
		if err := w.ctx.Err(); err != nil {
			w.g.fail(err)
			return false
		}
	}
	return true
}

// insert stages kid k of the expander, a successor of it, for its owning
// shard; in recoverable mode its dense id goes to the edge-record word slot.
func (w *pworker) insert(it pitem, k int, slot uint32) {
	x := &w.x
	h := x.kids[k].h
	s := uint64(len(w.g.shards))
	if h%s != it.h%s {
		w.crossShard++
	}
	d, cum := x.route(k, it.cum)
	w.push(int(h%s), pending{h: h, parent: it.h, dec: encDec(d), slot: slot, cum: cum}, x.kidEnc(k))
}

// push appends p, with encoding enc, to the outbox for shard si and inserts
// the outbox's batch once it is full: at batchMin successors only if the
// shard's lock is free, at batchCap waiting for it. The successors still
// pending when the worker runs out of work are inserted by drain. Until then
// the frozen-layer proviso cannot miss them: they all belong to the next
// layer, which it never counts as explored.
func (w *pworker) push(si int, p pending, enc []uint64) {
	ob := &w.out[si]
	ob.add(p, enc)
	if len(ob.items) < batchMin {
		return
	}
	sh := &w.g.shards[si]
	if len(ob.items) < batchCap {
		if !sh.mu.TryLock() {
			w.deferrals++
			return
		}
	} else {
		sh.mu.Lock()
	}
	sh.insertLocked(ob, w.layer+1, w.records())
	sh.mu.Unlock()
	w.flushes++
}

// drain inserts every successor still pending in w's outboxes, waiting for
// each shard's lock. A worker calls it once the layer has no item left for
// it, while the others may still be expanding: its successors all belong to
// the next layer, like those of a mid-layer batch. It visits the shards from
// first on, so workers that run dry together do not queue on one shard.
func (w *pworker) drain(first int) {
	for k := range w.out {
		si := (first + k) % len(w.out)
		ob := &w.out[si]
		if len(ob.items) == 0 {
			continue
		}
		sh := &w.g.shards[si]
		sh.mu.Lock()
		sh.insertLocked(ob, w.layer+1, w.records())
		sh.mu.Unlock()
	}
}

// expand explores one state of the current layer (crash-free mode), its
// encoding read from a, applying ample-set reduction with the frozen-layer
// proviso: the ample choice is discarded iff some ample successor was first
// discovered in a layer <= the current one. Entries inserted during the
// current layer carry layer+1 and never trigger it, so the proviso is
// independent of scheduling and worker count. Soundness (C3): on any cycle
// of ample-expanded states, the state with the maximum discovery layer L
// has its cycle successor discovered at a layer <= L, which forces full
// expansion of that state, a contradiction.
func (w *pworker) expand(it pitem, a *arena) {
	if !w.tick() {
		return
	}
	x := &w.x
	x.load(a.get(it.ref))
	if x.eng.Violated(&x.st) {
		if !w.viol || it.h < w.violH {
			w.viol, w.violH = true, it.h
		}
		return
	}
	ample, err := x.successors(func(h uint64) bool {
		layer, ok := w.g.layerOf(h)
		return ok && layer <= w.layer
	})
	if err != nil {
		w.g.fail(fmt.Errorf("vmprog: parallel check: %w", err))
		return
	}
	if ample {
		w.ampleSteps++
	}
	w.transitions += len(x.kids)
	for k := range x.kids {
		w.insert(it, k, 0)
	}
}

// expandRecov explores one state of the current layer in crash-enabled
// recoverability mode: no ample reduction (crashes are never independent),
// normalizations apply, and the state's edge record plus AllDone flags are
// logged for the co-reachability pass. Post-crash runtime faults become
// candidate counterexamples; the (state hash, decision)-minimal one is
// selected at the barrier so the reported fault is deterministic.
func (w *pworker) expandRecov(it pitem, a *arena) {
	if !w.tick() {
		return
	}
	x := &w.x
	x.load(a.get(it.ref))
	if x.eng.Violated(&x.st) {
		if !w.viol || it.h < w.violH {
			w.viol, w.violH = true, it.h
		}
		return
	}
	if x.eng.AllDone(&x.st) {
		w.doneIDs = append(w.doneIDs, it.id)
		return
	}
	x.all(w.crash)
	succ := 0
	for k := range x.kids {
		if x.kids[k].err == nil {
			succ++
		}
	}
	slot, err := w.recs.reserve(it.id, succ)
	if err != nil {
		w.g.fail(err)
		return
	}
	for k := range x.kids {
		if err := x.kids[k].err; err != nil {
			if x.st.Crashes == 0 {
				// Crash-free faults are program bugs, not verdicts.
				w.g.fail(fmt.Errorf("vmprog: recoverability check: %w", err))
				return
			}
			d, _ := x.route(k, it.cum)
			rd := encDec(d)
			if !w.fault || it.h < w.faultH || (it.h == w.faultH && rd < w.faultDec) {
				w.fault, w.faultH, w.faultDec, w.faultErr = true, it.h, rd, err.Error()
			}
			continue
		}
		w.transitions++
		w.insert(it, k, slot)
		slot++
	}
}

// runLayer expands every frontier item of the current layer across workers
// goroutines and blocks until the layer is drained (or stop is raised).
// Worker w drains front w first; exhausted workers steal chunks from the
// other fronts via the per-front atomic cursors. A worker that finds no item
// left calls dry, if it is not nil, before it returns; one stopped by stop
// does not.
func runLayer(workers int, fronts []frontier, stop *atomic.Bool, expand func(w int, it pitem, a *arena), dry func(w int)) {
	cursors := make([]atomic.Int64, len(fronts))
	const chunk = 16
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for off := 0; off < len(fronts); off++ {
				fi := (wi + off) % len(fronts)
				items := fronts[fi].items
				for {
					if stop.Load() {
						return
					}
					start := int(cursors[fi].Add(chunk)) - chunk
					if start >= len(items) {
						break
					}
					end := start + chunk
					if end > len(items) {
						end = len(items)
					}
					for k := start; k < end; k++ {
						expand(wi, items[k], &fronts[fi].enc)
					}
				}
			}
			if dry != nil {
				dry(wi)
			}
		}(wi)
	}
	wg.Wait()
}

// parallelWorkers resolves o's worker count and state budget.
func parallelWorkers(o ParallelOpts) (workers, maxStates int, err error) {
	if o.Workers < 0 {
		return 0, 0, fmt.Errorf("vmprog: worker count must not be negative, got %d", o.Workers)
	}
	maxStates = o.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	return max(o.Workers, 1), maxStates, nil
}

// Check explores the reachable state space exhaustively (bounded by
// o.MaxStates) and reports the first exclusion violation. States are true
// snapshots: spin loops revisit identical states, and the exploration
// terminates without any spin-collapsing heuristic. Cancelling ctx aborts
// it with the context's error.
//
// The search is a layered breadth-first exploration over hash-partitioned
// seen-set shards, one worker per shard, with chunked work stealing inside
// each layer. It reconstructs exact real-frame schedules from per-shard
// breadcrumbs; a violation's schedule is a shortest one in the graph the
// search explores. For a fixed
// program and options the verdict, the state and transition counts and the
// reported schedule are identical for every worker count.
//
// With pruning facts installed (UsePruning) the exploration is reduced but
// verdict-equivalent: at each state an ample process - one whose every
// enabled transition is invisible and statically independent of every
// other process's future - is expanded alone (conditions C0-C2), unless the
// frozen-layer proviso rejects it (C3, see pworker.expand). When the facts
// also carry liveness masks and symmetry forms, successors are
// canonicalized - dead registers zeroed, then the lexicographically minimal
// representative under all process permutations - and every recorded
// decision is translated back through the accumulated permutation, so
// Schedule always replays against an unreduced engine from the true
// initial state.
func (e *Engine) Check(ctx context.Context, o ParallelOpts) (*CheckResult, error) {
	workers, maxStates, err := parallelWorkers(o)
	if err != nil {
		return nil, err
	}
	g := newPGraph(workers, false)
	ws := make([]*pworker, workers)
	for i := range ws {
		ws[i] = newPWorker(ctx, e, g)
	}
	res := &CheckResult{Complete: true}
	g.insertRoot(&ws[0].x)
	fronts, _ := g.barrier(nil)
	for layer := int32(0); ; layer++ {
		for _, w := range ws {
			w.layer = layer
		}
		runLayer(workers, fronts, &g.stop, func(wi int, it pitem, a *arena) { ws[wi].expand(it, a) }, func(wi int) { ws[wi].drain(wi) })
		if err := g.failed(); err != nil {
			return nil, err
		}
		viol, violH := false, uint64(0)
		for _, w := range ws {
			res.Transitions += w.transitions
			res.AmpleSteps += w.ampleSteps
			res.shardStats.take(&w.shardStats)
			w.transitions, w.ampleSteps = 0, 0
			if w.viol && (!viol || w.violH < violH) {
				viol, violH = true, w.violH
			}
			w.viol = false
		}
		fronts, res.States = g.barrier(fronts)
		if viol {
			res.Violation = true
			res.Schedule = g.path(violH)
			res.Complete = false
			return res, nil
		}
		if res.States > maxStates {
			res.Complete = false
			return res, nil
		}
		if emptyFronts(fronts) {
			return res, nil
		}
	}
}

// CheckRecoverable explores the crash-bounded state space exhaustively and
// decides recoverability: mutual exclusion must hold in every reachable
// state and every reachable state must be able to reach completion
// (AllDone). The second condition is the co-reachability check that
// separates recoverable locks from locks that merely never violate
// exclusion after a crash but wedge forever (a crashed TAS owner leaves the
// lock word set; every process spins).
//
// It runs the layered search of Check, but drops each state once expanded:
// only breadcrumbs, edge records and AllDone flags persist, so crash spaces
// of tens of millions of states (the tournament lock at n=4) fit in memory.
// With pruning facts installed only the state normalizations are used
// (dead-register zeroing and symmetry canonicalization, both bisimulations
// that preserve co-reachability); ample-set reduction is never applied,
// because a process that can still crash re-enters through the recover
// section and invalidates the static future footprints - crash transitions
// are never independent of anything. Verdicts, counts and witnesses are
// identical for every worker count; the stuck witness is the
// (layer, hash)-minimal non-co-reachable state.
func (e *Engine) CheckRecoverable(ctx context.Context, o ParallelOpts, crash CrashOpts) (*RecovResult, error) {
	workers, maxStates, err := parallelWorkers(o)
	if err != nil {
		return nil, err
	}
	g := newPGraph(workers, true)
	ws := make([]*pworker, workers)
	for i := range ws {
		ws[i] = newPWorker(ctx, e, g)
		ws[i].crash = crash
	}
	res := &RecovResult{}
	g.insertRoot(&ws[0].x)
	fronts, _ := g.barrier(nil)
	for layer := int32(0); ; layer++ {
		for _, w := range ws {
			w.layer = layer
		}
		runLayer(workers, fronts, &g.stop, func(wi int, it pitem, a *arena) { ws[wi].expandRecov(it, a) }, func(wi int) { ws[wi].drain(wi) })
		if err := g.failed(); err != nil {
			return nil, err
		}
		viol, violH := false, uint64(0)
		fault, faultH, faultDec, faultErr := false, uint64(0), uint32(0), ""
		for _, w := range ws {
			res.Transitions += w.transitions
			res.shardStats.take(&w.shardStats)
			w.transitions = 0
			if w.viol && (!viol || w.violH < violH) {
				viol, violH = true, w.violH
			}
			if w.fault && (!fault || w.faultH < faultH || (w.faultH == faultH && w.faultDec < faultDec)) {
				fault, faultH, faultDec, faultErr = true, w.faultH, w.faultDec, w.faultErr
			}
			w.viol, w.fault = false, false
		}
		fronts, res.States = g.barrier(fronts)
		if viol {
			res.Complete = true
			res.Violation = true
			res.ViolationSchedule = g.path(violH)
			return res, nil
		}
		if fault {
			res.Complete = true
			res.Fault = true
			res.FaultErr = faultErr
			res.FaultSchedule = append(g.path(faultH), decDec(faultDec))
			return res, nil
		}
		if res.States > maxStates {
			return res, nil // Complete stays false: no verdict
		}
		if emptyFronts(fronts) {
			break
		}
	}
	res.Complete = true
	// Co-reachability of completion over the dense graph: reverse BFS from
	// the AllDone states along a predecessor index built from the workers'
	// edge records.
	n := g.ids()
	logs := make([]*edgeRecs, len(ws))
	for i, w := range ws {
		logs[i] = &w.recs
	}
	start, preds, err := predIndex(n, logs)
	if err != nil {
		return nil, err
	}
	coreach := make([]bool, n)
	var queue []uint32
	for _, w := range ws {
		for _, id := range w.doneIDs {
			if !coreach[id] {
				coreach[id] = true
				queue = append(queue, id)
			}
		}
	}
	for len(queue) > 0 {
		j := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, i := range preds[start[j]:start[j+1]] {
			if !coreach[i] {
				coreach[i] = true
				queue = append(queue, i)
			}
		}
	}
	if h, ok := g.stuck(coreach); ok {
		res.Stuck = true
		res.StuckSchedule = g.path(h)
	}
	res.Recoverable = !res.Violation && !res.Stuck && !res.Fault
	return res, nil
}

package engine

import (
	"math"
	"sync"
	"sync/atomic"

	"jetstream/internal/algo"
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/obs"
	"jetstream/internal/pad"
	"jetstream/internal/queue"
	"jetstream/internal/stats"
)

// This file is the parallel multi-PE execution path of the functional engine.
// The paper's accelerator runs 8 event-processing PEs concurrently over a
// partitioned vertex space (Table 1); here each PE is one worker that owns a
// disjoint vertex set (the BFS-grown partition of
// internal/graph/partition.go), drains a private coalescing shard
// (queue.Shard), and routes cross-partition propagations through per-pair
// mail buffers that mirror the internal/noc crossbar fabric.
//
// A phase is bulk-synchronous, with rounds that mirror Coalescing.DrainRound.
// In round k every worker first merges the mail sent to it in round k-1, in
// ascending source-worker order and then emission order, and then drains
// exactly one Shard.DrainRound; a cross-partition emission is appended to
// mail[k&1][src][dst]. At the round boundary the phase's goroutine waits for
// all workers, and the phase ends when every shard and every buffer written
// in the round is empty.
//
// Correctness rests on three properties:
//
//   - Ownership: a vertex's state (and DAP dependency field) is read and
//     written only by its owning worker, so the shared state slice needs no
//     locks. Handlers never read another vertex's state — contributions
//     arrive in the event payload, exactly as in the hardware.
//   - Parity: a mail buffer is written only by its source in rounds of one
//     parity and read and emptied only by its destination in the next round,
//     so the barrier between them is the only synchronization it needs.
//   - Determinism: each worker's work in a round is a function of its shard
//     and its inbound mail, both of which are fixed at the round's start, so
//     every event is processed and every contribution merged in an order
//     that depends on the input and the worker count, never on scheduling.
//     Selective kernels reach the sequential engine's fixpoint bit for bit;
//     accumulative ones give bitwise-identical results run to run at each
//     parallelism, within the epsilon-truncation bound of the sequential
//     result (core.Tolerance). As in the sequential drain, a vertex's
//     contributions of one round coalesce before it is processed, so the
//     generation-time epsilon cut drops no more mass than there.

// Reused event buffers are kept only up to a size. A mail buffer that outgrew
// mailKeepEvents is dropped once its destination has merged it, so the large
// buffers of a from-scratch convergence go back to the collector instead of
// staying pinned for the Engine's lifetime (at p=8 there are 2×56 of them).
// The seed buffer is likewise dropped after a phase whose seeds outgrew
// seedMaxEvents.
const (
	mailKeepEvents = 1024
	seedMaxEvents  = 4096
)

// parallelRun is the parallel compute path's state. It lives as long as the
// Engine: it is built on the first parallel phase (buildParallel) and dropped
// only when the worker count or the ownership map changes (Repartition), so
// a phase costs O(work), not O(V). Everything in it is empty at quiescence —
// shards and mail buffers — so reuse needs no clearing; only the per-phase
// tallies are reset (begin).
type parallelRun struct {
	alg      algo.Algorithm
	acc      bool
	eps      float64
	view     GraphView
	state    []float64
	dep      []graph.VertexID
	sq       *queue.Sharded
	trackDep bool

	workers []*peWorker
	seedCo  []uint64 // per-shard seed coalesces of the current phase

	// mail[k&1][src][dst] holds the cross-partition events src emitted to
	// dst in round k, merged and emptied by dst in round k+1. nil at
	// src == dst.
	mail [2][][][]event.Event

	// start[i] releases worker i ≥ 1 into round k (a value k ≥ 0) or out of
	// the phase (-1). Worker 0 runs on the phase's goroutine.
	start []chan int
	// done carries the id of the last worker to arrive at a round's
	// barrier, when that is not worker 0.
	done chan int
	// exited joins the worker goroutines at the end of a phase.
	exited sync.WaitGroup

	// arrivals counts the workers yet to arrive at the current round's
	// barrier. Every worker decrements it once per round, so it gets a cache
	// line to itself, away from the read-mostly fields above.
	_        pad.Line
	arrivals atomic.Int32
	_        pad.Line
}

// peWorker is one simulated processing engine.
//
// The stats block and the per-round tallies below the first pad line are
// written by this worker on every processed event. Workers are allocated
// back-to-back, so without the cache-line fences one worker's counter
// increments would sit on the same line as a neighbor's and the per-event
// stores would ping-pong ownership between cores — the classic false-sharing
// tax on exactly the path BenchmarkParallelism measures.
type peWorker struct {
	id    int
	run   *parallelRun
	shard *queue.Shard

	// The per-row and per-edge bodies, bound once so that neither the shard
	// drain nor the walk through the GraphView interface allocates a closure.
	batch func([]event.Event)
	edge  func(graph.VertexID, graph.Weight)

	_   pad.Line        // fence: per-event single-writer region below
	st  stats.Counters  // merged into the engine's sink at phase end
	out [][]event.Event // this round's outbound mail, run.mail[k&1][id]

	// The vertex propagate is walking, read by propagateEdge.
	pu    graph.VertexID
	px    float64
	pdeg  int
	pwsum float64

	// Observability tallies, published into the engine's Obs at phase end.
	// tr is nil when the engine is uninstrumented; it must be called only
	// with concurrency-safe tracers (the Tracer contract).
	tr        obs.Tracer
	trSeq     uint64
	sent      []uint64 // per-destination cross-partition events mailed
	forwarded uint64   // total cross-partition events mailed
	idle      bool     // the current round is idle: nothing to process
	idleSpins uint64   // idle rounds
	parks     uint64   // idle rounds that ended blocked at the barrier

	_ pad.Line // fence: nothing after the hot region shares its last line
}

// parallelism returns the effective worker count for the next compute phase:
// the configured Parallelism, clamped to the vertex count, and 1 (sequential)
// whenever a sequential-only feature is active — the timing model (which
// reconstructs hardware parallelism from the deterministic trace), graph
// slicing (§4.7 processes one slice at a time by design), or a trace hook.
func (e *Engine) parallelism() int {
	p := e.cfg.Parallelism
	if p <= 1 || e.cfg.Timing || e.part != nil || e.trace != nil {
		return 1
	}
	if n := e.csr.NumVertices(); p > n {
		p = n
	}
	if p <= 1 {
		return 1
	}
	return p
}

// RunCompute runs the regular computation phase (Algorithm 1 with
// JetStream's request/dependency extensions) to quiescence, sharded across
// Parallelism workers when the configuration allows it and sequentially
// otherwise. Parallelism 1 is byte-for-byte the sequential engine.
func (e *Engine) RunCompute() {
	e.materialize()
	if p := e.parallelism(); p > 1 {
		e.runComputeParallel(p)
		return
	}
	e.RunPhase(e.ComputeHandler())
}

// ownership returns the cached vertex -> worker assignment for p workers,
// computing it from the BFS-grown partitioner on first use. The assignment
// is kept across graph versions (ownership only needs disjointness; the
// vertex count never changes) and refreshed by Repartition, mirroring §4.7's
// periodic re-partitioning.
func (e *Engine) ownership(p int) []int32 {
	if e.owner == nil || e.ownerK != p {
		part := graph.PartitionGraph(e.csr, p)
		e.owner = make([]int32, e.csr.NumVertices())
		for v := range e.owner {
			e.owner[v] = int32(part.SliceOf(graph.VertexID(v)))
		}
		e.ownerK = p
	}
	return e.owner
}

// buildParallel (re)creates the persistent parallel state for p workers:
// shards carved from the sequential queue's slots, the two parities of mail
// buffer headers, the round-release channels and the workers.
func (e *Engine) buildParallel(p int) {
	r := &parallelRun{
		alg:     e.alg,
		acc:     e.alg.Class() == algo.Accumulative,
		eps:     e.alg.Epsilon(),
		sq:      e.q.Sharded(p, e.ownership(p)),
		workers: make([]*peWorker, p),
		seedCo:  make([]uint64, p),
		start:   make([]chan int, p),
		done:    make(chan int, 1),
	}
	for par := range r.mail {
		r.mail[par] = make([][][]event.Event, p)
		for src := range r.mail[par] {
			r.mail[par][src] = make([][]event.Event, p)
		}
	}
	for i := range r.workers {
		w := &peWorker{
			id:    i,
			run:   r,
			shard: r.sq.Shard(i),
			sent:  make([]uint64, p),
		}
		if i > 0 {
			r.start[i] = make(chan int, 1)
		}
		w.batch = w.processBatch
		w.edge = w.propagateEdge
		r.workers[i] = w
	}
	e.par = r
}

// begin readies the persistent state for one phase: it picks up what may
// have changed since the last one (graph version, state arrays, tracer,
// coalescing mode) and zeroes the per-phase tallies.
func (r *parallelRun) begin(e *Engine) {
	r.view, r.state, r.dep = e.view, e.state, e.dep
	r.trackDep = e.dep != nil
	r.sq.SetCoalescing(e.q.CoalescingEnabled())
	clear(r.seedCo)
	var tr obs.Tracer
	if e.ob != nil {
		tr = e.ob.Tr
	}
	for _, w := range r.workers {
		w.st = stats.Counters{}
		w.tr, w.trSeq = tr, 0
		clear(w.sent)
		w.forwarded, w.idleSpins, w.parks = 0, 0, 0
	}
}

// runComputeParallel is one parallel compute phase on the persistent state.
// Seeds move through a reused buffer, so in steady state the phase's only
// allocations, and its only cost that does not scale with its work, are the
// p-1 goroutine spawns.
//
//jetlint:hotpath
func (e *Engine) runComputeParallel(p int) {
	e.st.Phases++
	var phaseSeq, p0 uint64
	if e.ob != nil {
		phaseSeq = e.ob.nextSeq()
		p0 = e.st.EventsProcessed
		e.ob.Tr.Trace(obs.TraceEvent{Kind: obs.KindPhaseStart, Seq: phaseSeq, Worker: -1, A: e.st.Phases})
	}

	// Take the phase's seed events (already counted as generated when they
	// were emitted) out of the sequential queue. This must finish before the
	// first shard insert: the shards reuse the queue's slots.
	e.seeds = e.q.TakeAll(e.seeds[:0])
	if len(e.seeds) == 0 {
		if e.ob != nil {
			e.ob.Tr.Trace(obs.TraceEvent{Kind: obs.KindPhaseEnd, Seq: phaseSeq, Worker: -1,
				A: e.st.Phases, B: e.st.EventsProcessed - p0})
		}
		return
	}
	if e.par == nil || len(e.par.workers) != p {
		e.buildParallel(p)
	}
	r := e.par
	r.begin(e)

	// Move the seeds into the shards. Seed coalesces are attributed to the
	// destination shard's owner — that is where the merge happens in the
	// hardware.
	for _, ev := range e.seeds {
		d := r.sq.Owner(ev.Target)
		if r.sq.Shard(d).Insert(ev) {
			e.st.EventsCoalesced++
			r.seedCo[d]++
		}
	}
	if e.ob != nil {
		for i, n := range r.seedCo {
			if n > 0 {
				e.ob.worker(i).coalesced.Add(n)
				e.obPub.EventsCoalesced += n
			}
		}
	}
	if cap(e.seeds) > seedMaxEvents {
		e.seeds = nil
	}

	r.exited.Add(p - 1)
	for _, w := range r.workers[1:] {
		go w.work()
	}
	w0 := r.workers[0]
	for k := 0; ; k++ {
		r.arrivals.Store(int32(p))
		for _, c := range r.start[1:] {
			c <- k
		}
		w0.round(k)
		last := 0
		if !w0.arrive() {
			last = <-r.done
		}
		// Every idle worker but the last to arrive waited for the others.
		for _, w := range r.workers {
			if w.idle && w.id != last {
				w.parks++
			}
		}
		if r.quiescent(k) {
			break
		}
	}
	for _, c := range r.start[1:] {
		c <- -1
	}
	r.exited.Wait()

	// Merge the per-worker counters into the engine's sink (the per-worker
	// accumulation that keeps internal/stats correct without contended
	// atomics on the hot path), then publish each worker's share into its
	// labeled series and the NoC transfer matrix.
	for _, w := range r.workers {
		e.st.Add(&w.st)
	}
	if e.ob != nil {
		for i, w := range r.workers {
			e.publishWorker(i, w)
		}
		e.ob.Tr.Trace(obs.TraceEvent{Kind: obs.KindPhaseEnd, Seq: phaseSeq, Worker: -1,
			A: e.st.Phases, B: e.st.EventsProcessed - p0})
	}
}

// quiescent reports, at the boundary after round k, whether the phase is
// done: no shard holds an event and no worker mailed one in round k.
func (r *parallelRun) quiescent(k int) bool {
	if r.sq.Len() != 0 {
		return false
	}
	for _, row := range r.mail[k&1] {
		for _, buf := range row {
			if len(buf) != 0 {
				return false
			}
		}
	}
	return true
}

// work is the goroutine of worker i ≥ 1 for one phase: it runs each round it
// is released into until the phase's goroutine sends -1.
func (w *peWorker) work() {
	defer w.run.exited.Done()
	start := w.run.start[w.id]
	for k := <-start; k >= 0; k = <-start {
		w.round(k)
		if w.arrive() {
			w.run.done <- w.id
		}
	}
}

// arrive marks the worker's arrival at the round's barrier and reports
// whether it was the last to arrive. The worker writes none of its state
// after arriving: the phase's goroutine reads it at the boundary.
func (w *peWorker) arrive() bool {
	return w.run.arrivals.Add(-1) == 0
}

// round is the worker's share of round k: merge the mail sent to it in round
// k-1, in ascending source order and then emission order, emptying each
// buffer; then drain one shard round, mailing cross-partition emissions into
// run.mail[k&1][id].
//
//jetlint:hotpath
func (w *peWorker) round(k int) {
	r := w.run
	for _, row := range r.mail[(k+1)&1] {
		buf := row[w.id]
		if len(buf) == 0 {
			continue
		}
		for _, ev := range buf {
			if w.shard.Insert(ev) {
				w.st.EventsCoalesced++
			}
		}
		if cap(buf) > mailKeepEvents {
			buf = nil
		}
		row[w.id] = buf[:0]
	}
	w.out = r.mail[k&1][w.id]
	w.idle = w.shard.DrainRound(w.batch) == 0
	if w.idle {
		w.idleSpins++
		return
	}
	w.st.Rounds++
	if w.tr != nil {
		for d, buf := range w.out {
			if len(buf) > 0 {
				w.trSeq++
				w.tr.Trace(obs.TraceEvent{Kind: obs.KindWorkerMail, Seq: w.trSeq,
					Worker: w.id, A: uint64(d), B: uint64(len(buf))})
			}
		}
	}
}

// processBatch applies one row batch of the shard drain (bound once as
// w.batch).
func (w *peWorker) processBatch(batch []event.Event) {
	for _, ev := range batch {
		w.process(ev)
	}
}

// process applies one event — the parallel twin of Engine.ComputeHandler,
// using per-worker counters and ownership-routed emission.
func (w *peWorker) process(ev event.Event) {
	r := w.run
	v := ev.Target
	w.st.EventsProcessed++
	w.st.VertexReads++
	old := r.state[v]
	if r.acc {
		r.state[v] = r.alg.Reduce(old, ev.Value)
		w.st.VertexWrites++
		w.propagate(v, ev.Value)
		return
	}
	nw := r.alg.Reduce(old, ev.Value)
	changed := nw != old
	if changed {
		r.state[v] = nw
		w.st.VertexWrites++
		if r.trackDep {
			r.dep[v] = ev.Source
		}
	}
	if changed || ev.IsRequest() {
		w.propagate(v, nw)
	}
}

// propagate sends x from u along every out-edge in the active view — the
// parallel twin of Engine.PropagateValue. The per-edge body is the bound
// method value w.edge, with the vertex's operands parked in the worker, so
// the walk through the GraphView interface allocates no closure per vertex.
func (w *peWorker) propagate(u graph.VertexID, x float64) {
	r := w.run
	deg := r.view.OutDegree(u)
	if deg == 0 {
		return
	}
	w.pu, w.px, w.pdeg, w.pwsum = u, x, deg, r.view.OutWeightSum(u)
	r.view.OutEdges(u, w.edge)
	w.st.EdgeReads += uint64(deg)
}

// propagateEdge is propagate's per-edge body (bound once as w.edge).
func (w *peWorker) propagateEdge(dst graph.VertexID, wt graph.Weight) {
	r := w.run
	val := r.alg.Propagate(w.pu, w.px, wt, w.pdeg, w.pwsum)
	if r.acc && math.Abs(val) <= r.eps {
		return
	}
	w.emit(event.Event{Target: dst, Value: val, Source: w.pu})
}

// emit routes ev to its owner: the local shard directly (a later row of this
// round or the next round, as in the sequential drain), another worker
// through this round's mail buffer to it.
func (w *peWorker) emit(ev event.Event) {
	w.st.EventsGenerated++
	d := w.run.sq.Owner(ev.Target)
	if d == w.id {
		if w.shard.Insert(ev) {
			w.st.EventsCoalesced++
		}
		return
	}
	w.out[d] = append(w.out[d], ev)
	w.sent[d]++
	w.forwarded++
}

package engine

import (
	"math"
	"runtime"
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
// partitioned vertex space (Table 1); here each PE is one worker goroutine
// that owns a disjoint vertex set (the BFS-grown partition of
// internal/graph/partition.go), drains a private coalescing shard
// (queue.Shard), and routes cross-partition propagations through per-pair
// channels that mirror the internal/noc crossbar fabric.
//
// Correctness rests on three properties:
//
//   - Ownership: a vertex's state (and DAP dependency field) is read and
//     written only by its owning worker, so the shared state slice needs no
//     locks. Handlers never read another vertex's state — contributions
//     arrive in the event payload, exactly as in the hardware.
//   - Reordering: Reduce is commutative and associative (paper §3.1), so any
//     interleaving converges to the same fixpoint — identical bits for
//     selective kernels, within the epsilon-truncation bound for
//     accumulative ones.
//   - Quiescence: termination uses a distributed outstanding-event count
//     instead of the sequential empty-queue check. Every live event record
//     (queue slot, overflow entry, staged or in-flight cross event) holds
//     one token on a shared counter; tokens are acquired before the record
//     becomes visible and released only after it is retired (processed, or
//     merged into an already-counted slot). A worker observing zero may
//     therefore exit: nothing is live anywhere and no live record can mint
//     new work.

// chanCap bounds each per-pair channel. Sends are non-blocking (full
// channels park events in the sender's staging buffer, retried next loop),
// so the capacity only tunes batching, never correctness.
const chanCap = 64

// Reused event buffers are kept only up to a size. Drained mail buffers
// return to their sender, at most freeCap per pair and each of at most
// freeMaxEvents capacity: enough for the few small mail batches of a
// streaming phase, while the large buffers of a from-scratch convergence go
// back to the collector instead of staying pinned for the Engine's lifetime
// (at p=8 there are 56 pairs). The seed buffer is likewise dropped after a
// phase whose seeds outgrew seedMaxEvents.
const (
	freeCap       = 2
	freeMaxEvents = 1024
	seedMaxEvents = 4096
)

// spinLimit is how many consecutive work-less loop iterations a worker
// yields the processor for before it parks on its wake channel.
const spinLimit = 64

// parallelRun is the parallel compute path's state. It lives as long as the
// Engine: it is built on the first parallel phase (buildParallel) and dropped
// only when the worker count or the ownership map changes (Repartition), so
// a phase costs O(work), not O(V). Everything in it is empty at quiescence —
// shards, mail channels and staging buffers — so reuse needs no clearing;
// only the per-phase tallies are reset (begin).
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
	wakes   []chan struct{} // wakes[i] is worker i's 1-buffered park token
	seedCo  []uint64        // per-shard seed coalesces of the current phase
	wg      sync.WaitGroup

	// outstanding is the quiescence barrier: live event records not yet
	// retired. Workers exit when they observe zero. Every worker hammers this
	// counter once per row batch, so it gets a cache line to itself — without
	// the fences its line also holds the read-mostly fields above, and every
	// Add would invalidate the view/state headers in all other workers'
	// caches.
	_           pad.Line
	outstanding atomic.Int64
	_           pad.Line
}

// peWorker is one simulated processing engine.
//
// The stats block and the per-batch tallies below the first pad line are
// written by this worker on every processed event. Workers are allocated
// back-to-back, so without the cache-line fences one worker's counter
// increments would sit on the same line as a neighbor's and the per-event
// stores would ping-pong ownership between cores — the classic false-sharing
// tax on exactly the path BenchmarkParallelism measures.
type peWorker struct {
	id      int
	run     *parallelRun
	shard   *queue.Shard
	staging [][]event.Event      // cross-partition events not yet sent, per destination
	inbox   []chan []event.Event // mail[*][id], nil at index id
	outbox  []chan []event.Event // mail[id][*], nil at index id
	// Drained mail buffers travel back to their sender so staging reuses
	// them: free[d] yields buffers this worker sent to d, ret[s] takes
	// buffers received from s. Both nil at index id.
	free []chan []event.Event
	ret  []chan []event.Event
	wake chan struct{} // park token, see loop

	_  pad.Line       // fence: per-event single-writer region below
	st stats.Counters // merged into the engine's sink at phase end

	// The vertex propagate is walking, read by propagateEdge.
	edge  func(graph.VertexID, graph.Weight)
	pu    graph.VertexID
	px    float64
	pdeg  int
	pwsum float64

	// Per-batch token bookkeeping (see quiescence comment above).
	newLive int64 // records that became live while processing the current batch

	// Observability tallies, published into the engine's Obs at phase end.
	// tr is nil when the engine is uninstrumented; it must be called only
	// with concurrency-safe tracers (the Tracer contract).
	tr        obs.Tracer
	trSeq     uint64
	sent      []uint64 // per-destination cross-partition events staged
	forwarded uint64   // total cross-partition events staged
	idleSpins uint64   // loop iterations that found no work
	parks     uint64   // times the worker blocked on its wake channel

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
// shards carved from the sequential queue's slots, the mail fabric with its
// buffer-return channels, the wake channels and the workers.
func (e *Engine) buildParallel(p int) {
	r := &parallelRun{
		alg:     e.alg,
		acc:     e.alg.Class() == algo.Accumulative,
		eps:     e.alg.Epsilon(),
		sq:      e.q.Sharded(p, e.ownership(p)),
		workers: make([]*peWorker, p),
		wakes:   make([]chan struct{}, p),
		seedCo:  make([]uint64, p),
	}
	mail := make([][]chan []event.Event, p)
	free := make([][]chan []event.Event, p) // free[i][j]: buffers i sent to j, back to i
	for i := range mail {
		mail[i] = make([]chan []event.Event, p)
		free[i] = make([]chan []event.Event, p)
		for j := range mail[i] {
			if i != j {
				mail[i][j] = make(chan []event.Event, chanCap)
				free[i][j] = make(chan []event.Event, freeCap)
			}
		}
		r.wakes[i] = make(chan struct{}, 1)
	}
	for i := range r.workers {
		w := &peWorker{
			id:      i,
			run:     r,
			shard:   r.sq.Shard(i),
			staging: make([][]event.Event, p),
			inbox:   make([]chan []event.Event, p),
			outbox:  mail[i],
			free:    free[i],
			ret:     make([]chan []event.Event, p),
			wake:    r.wakes[i],
			sent:    make([]uint64, p),
		}
		w.edge = w.propagateEdge
		for j := 0; j < p; j++ {
			if j != i {
				w.inbox[j] = mail[j][i]
				w.ret[j] = free[j][i]
			}
		}
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
		w.newLive = 0
		w.tr, w.trSeq = tr, 0
		clear(w.sent)
		w.forwarded, w.idleSpins, w.parks = 0, 0, 0
	}
}

// runComputeParallel is one parallel compute phase on the persistent state.
// Seeds move through a reused buffer, so in steady state the phase's only
// allocations, and its only cost that does not scale with its work, are the
// p goroutine spawns.
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

	// Move the seeds into the shards. Workers have not started, so token
	// ordering is not yet a concern. Seed coalesces are attributed to the
	// destination shard's owner — that is where the merge happens in the
	// hardware.
	live := int64(0)
	for _, ev := range e.seeds {
		d := r.sq.Owner(ev.Target)
		if r.sq.Shard(d).Insert(ev) {
			e.st.EventsCoalesced++
			r.seedCo[d]++
		} else {
			live++
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
	r.outstanding.Store(live)
	if cap(e.seeds) > seedMaxEvents {
		e.seeds = nil
	}

	r.wg.Add(p)
	for _, w := range r.workers {
		go w.work()
	}
	r.wg.Wait()

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

// work runs the worker's loop as one goroutine of the phase.
func (w *peWorker) work() {
	defer w.run.wg.Done()
	w.loop()
}

// wakeAll hands every worker a park token. It is called by whichever worker
// releases the last outstanding token, so parked workers see quiescence.
func (r *parallelRun) wakeAll() {
	for _, c := range r.wakes {
		select {
		case c <- struct{}{}:
		default:
		}
	}
}

// addTokens applies a net token change (negative when records retire),
// waking every worker when the count reaches zero.
func (r *parallelRun) addTokens(delta int64) {
	if r.outstanding.Add(delta) == 0 {
		r.wakeAll()
	}
}

// loop is the worker's scheduler: drain inbound cross-partition events,
// process local rows, flush outbound staging, and exit at global quiescence.
//
// A worker with nothing to do yields for spinLimit iterations and then parks
// on its wake channel until another worker hands it a token: a sender after
// every successful mail send to it, and whoever brings the outstanding count
// to zero. The token is buffered, so one sent between this worker's last
// check and its park is not lost; a stale token only costs one more pass of
// the checks. A worker with staged events it could not send never parks: no
// one would wake it when the destination's channel drains.
//
//jetlint:hotpath
func (w *peWorker) loop() {
	idle := 0
	for {
		progress := w.drainInbox()
		if !w.shard.Empty() {
			w.drainRounds()
			w.flushStaging()
			idle = 0
			continue
		}
		if w.flushStaging() || progress {
			idle = 0
			continue
		}
		if w.run.outstanding.Load() == 0 {
			return
		}
		w.idleSpins++
		if idle < spinLimit || w.staged() {
			idle++
			runtime.Gosched()
			continue
		}
		w.parks++
		<-w.wake
	}
}

// staged reports whether any cross-partition events await sending.
func (w *peWorker) staged() bool {
	for _, evs := range w.staging {
		if len(evs) > 0 {
			return true
		}
	}
	return false
}

// drainRounds processes the shard until it is momentarily empty,
// interleaving inbox drains so inbound events join the current cascade.
func (w *peWorker) drainRounds() {
	for !w.shard.Empty() {
		n := w.shard.DrainRound(func(batch []event.Event) {
			w.newLive = 0
			for _, ev := range batch {
				w.process(ev)
			}
			// One atomic per row batch: retire the batch's tokens and
			// acquire tokens for every record it made live. The swap
			// happens after the children exist (so the counter can never
			// dip to zero while work remains) and before staged events are
			// sent (staged records are counted, merely not yet visible).
			if delta := w.newLive - int64(len(batch)); delta != 0 {
				w.run.addTokens(delta)
			}
		})
		if n > 0 {
			w.st.Rounds++
		}
		w.flushStaging()
		w.drainInbox()
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

// emit routes ev to its owner: the local shard directly, other workers via
// the staged per-pair channels. An empty staging slot first takes back a
// buffer the destination has drained.
func (w *peWorker) emit(ev event.Event) {
	w.st.EventsGenerated++
	r := w.run
	d := r.sq.Owner(ev.Target)
	if d == w.id {
		if w.shard.Insert(ev) {
			w.st.EventsCoalesced++
		} else {
			w.newLive++
		}
		return
	}
	buf := w.staging[d]
	if buf == nil {
		select {
		case buf = <-w.free[d]:
		default:
		}
	}
	w.staging[d] = append(buf, ev)
	w.newLive++
	w.sent[d]++
	w.forwarded++
}

// flushStaging attempts a non-blocking send of every staged batch, waking
// the destination after each successful send. Full channels keep their batch
// staged for the next attempt, which cannot deadlock: every worker drains its
// inbox on every loop iteration, and a worker holding staged events does not
// park.
func (w *peWorker) flushStaging() bool {
	sent := false
	for d, evs := range w.staging {
		if len(evs) == 0 {
			continue
		}
		select {
		case w.outbox[d] <- evs:
			w.staging[d] = nil
			sent = true
			select {
			case w.run.wakes[d] <- struct{}{}:
			default:
			}
			if w.tr != nil {
				w.trSeq++
				w.tr.Trace(obs.TraceEvent{Kind: obs.KindWorkerMail, Seq: w.trSeq,
					Worker: w.id, A: uint64(d), B: uint64(len(evs))})
			}
		default:
		}
	}
	return sent
}

// drainInbox receives every currently available inbound batch and inserts it
// into the local shard, releasing the tokens of records that coalesced away
// and returning each drained buffer to its sender.
func (w *peWorker) drainInbox() bool {
	got := false
	for src, ch := range w.inbox {
		if ch == nil {
			continue
		}
		for {
			select {
			case evs := <-ch:
				got = true
				merged := int64(0)
				for _, ev := range evs {
					if w.shard.Insert(ev) {
						w.st.EventsCoalesced++
						merged++
					}
				}
				if merged > 0 {
					w.run.addTokens(-merged)
				}
				if cap(evs) <= freeMaxEvents {
					select {
					case w.ret[src] <- evs[:0]:
					default:
					}
				}
				continue
			default:
			}
			break
		}
	}
	return got
}

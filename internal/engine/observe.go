package engine

import (
	"strconv"

	"jetstream/internal/mem"
	"jetstream/internal/noc"
	"jetstream/internal/obs"
)

// Obs bundles the engine's observability sinks: a metrics registry for the
// labeled per-worker / per-component series and a Tracer for event-level
// hooks. It is attached with Engine.SetObs and shared by the core scheduler
// and the host session so the whole pipeline exports into one registry.
//
// Attribution contract: per-worker counters are published at phase and batch
// boundaries (never per event), so the hot path pays nothing. The engine
// keeps a published-baseline copy of its stats sink; FlushObs attributes the
// un-published residual — work done on the sequential path — to worker 0,
// while the parallel merge attributes each worker's private counters to its
// own series. At every flush boundary the per-worker sums therefore equal
// the global stats.Counters deltas exactly (the conservation law the metrics
// tests assert).
type Obs struct {
	Reg *obs.Registry
	Tr  obs.Tracer

	phaseSeq uint64
	workers  []*workerObs

	queueLive *obs.Gauge
	queueHigh *obs.Max

	// Degree-adaptive adjacency representation mix (see graph.CSR
	// RepresentationMix), refreshed at every flush boundary.
	inlineOut *obs.Gauge
	inlineIn  *obs.Gauge

	pairs  *noc.Matrix
	pairsK int
}

// workerObs holds one worker's registered series.
type workerObs struct {
	processed *obs.Counter
	coalesced *obs.Counter
	generated *obs.Counter
	forwarded *obs.Counter
	rounds    *obs.Counter
	idleSpins *obs.Counter
	parks     *obs.Counter
	shardHigh *obs.Max
}

// NewObs builds an Obs over reg and tr. tr may be nil (no tracing).
func NewObs(reg *obs.Registry, tr obs.Tracer) *Obs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if tr == nil {
		tr = obs.Nop
	}
	return &Obs{
		Reg:       reg,
		Tr:        tr,
		queueLive: reg.Gauge("jetstream_queue_live_events"),
		queueHigh: reg.Max("jetstream_queue_highwater"),
		inlineOut: reg.Gauge("jetstream_graph_inline_vertices", obs.L("dir", "out")),
		inlineIn:  reg.Gauge("jetstream_graph_inline_vertices", obs.L("dir", "in")),
	}
}

// nextSeq returns a monotonic sequence number for trace events emitted from
// the engine thread.
func (o *Obs) nextSeq() uint64 {
	o.phaseSeq++
	return o.phaseSeq
}

// worker returns worker i's series, registering them on first use. Called
// only from the engine thread (flush and merge points), never from workers.
func (o *Obs) worker(i int) *workerObs {
	for len(o.workers) <= i {
		id := strconv.Itoa(len(o.workers))
		l := obs.L("worker", id)
		o.workers = append(o.workers, &workerObs{
			processed: o.Reg.Counter("jetstream_worker_events_processed_total", l),
			coalesced: o.Reg.Counter("jetstream_worker_events_coalesced_total", l),
			generated: o.Reg.Counter("jetstream_worker_events_generated_total", l),
			forwarded: o.Reg.Counter("jetstream_worker_events_forwarded_total", l),
			rounds:    o.Reg.Counter("jetstream_worker_rounds_total", l),
			idleSpins: o.Reg.Counter("jetstream_worker_idle_spins_total", l),
			parks:     o.Reg.Counter("jetstream_worker_parks_total", l),
			shardHigh: o.Reg.Max("jetstream_worker_shard_highwater", l),
		})
	}
	return o.workers[i]
}

// pairMatrix returns the k-port NoC transfer matrix, creating it and
// registering a per-pair series on first use.
func (o *Obs) pairMatrix(k int) *noc.Matrix {
	if o.pairs == nil || o.pairsK != k {
		o.pairs = noc.NewMatrix(k)
		o.pairsK = k
		m := o.pairs
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				src, dst := i, j
				o.Reg.CounterFunc("jetstream_noc_pair_events_total",
					func() uint64 { return m.Load(src, dst) },
					obs.L("src", strconv.Itoa(src)), obs.L("dst", strconv.Itoa(dst)))
			}
		}
	}
	return o.pairs
}

// WorkerStats is one worker's published totals, for structured snapshots.
type WorkerStats struct {
	Processed uint64
	Coalesced uint64
	Generated uint64
	Forwarded uint64
	Rounds    uint64
	// IdleSpins counts the rounds in which the worker had nothing to process;
	// Parks counts the subset that ended with the worker blocked at the round
	// barrier, waiting for other workers.
	IdleSpins uint64
	Parks     uint64
	// ShardHighWater is the peak live-event count of the worker's shard over
	// the engine's lifetime (shards persist across phases).
	ShardHighWater uint64
}

// WorkerSnapshots returns the published per-worker totals.
func (o *Obs) WorkerSnapshots() []WorkerStats {
	out := make([]WorkerStats, len(o.workers))
	for i, w := range o.workers {
		out[i] = WorkerStats{
			Processed:      w.processed.Load(),
			Coalesced:      w.coalesced.Load(),
			Generated:      w.generated.Load(),
			Forwarded:      w.forwarded.Load(),
			Rounds:         w.rounds.Load(),
			IdleSpins:      w.idleSpins.Load(),
			Parks:          w.parks.Load(),
			ShardHighWater: w.shardHigh.Load(),
		}
	}
	return out
}

// PairSnapshot returns the NoC transfer matrix as (port count, row-major
// cells); k is 0 when no parallel phase has run.
func (o *Obs) PairSnapshot() (int, []uint64) {
	if o.pairs == nil {
		return 0, nil
	}
	return o.pairsK, o.pairs.Snapshot()
}

// QueuePeak returns the published queue high-water mark.
func (o *Obs) QueuePeak() uint64 { return o.queueHigh.Load() }

// SetObs attaches the observability sinks (nil detaches). The engine baselines
// its stats sink so FlushObs attributes only work done after attachment.
func (e *Engine) SetObs(o *Obs) {
	e.ob = o
	if o == nil {
		e.q.SetObs(nil, nil)
		return
	}
	e.obPub = *e.st
	e.q.SetObs(o.queueLive, o.queueHigh)
	if m, ok := e.tm.(interface{ Observe(*obs.Registry) }); ok && e.tm != nil {
		m.Observe(o.Reg)
	}
}

// Obs returns the attached observability sinks (nil when uninstrumented).
func (e *Engine) Obs() *Obs { return e.ob }

// Channels returns the cycle model's per-channel DRAM traffic, or nil when
// timing is off.
func (e *Engine) Channels() []mem.ChannelCounts {
	if c, ok := e.tm.(interface{ Channels() []mem.ChannelCounts }); ok {
		return c.Channels()
	}
	return nil
}

// FlushObs publishes the stats-sink delta accumulated since the last flush.
// Sequential-path work has no worker identity, so the residual is attributed
// to worker 0 — the parallel merge has already attributed and baselined each
// worker's share, so nothing is counted twice. Call at operation boundaries
// (end of batch, end of initial run).
func (e *Engine) FlushObs() {
	// Join the timing pipeline first: the whole-struct copy below reads the
	// traffic counters its consumer writes, and flush boundaries are where
	// overlap must end anyway.
	e.SyncTiming()
	if e.ob == nil {
		return
	}
	d := *e.st
	d.Sub(&e.obPub)
	w := e.ob.worker(0)
	w.processed.Add(d.EventsProcessed)
	w.coalesced.Add(d.EventsCoalesced)
	w.generated.Add(d.EventsGenerated)
	w.rounds.Add(d.Rounds)
	e.obPub = *e.st
	e.ob.queueLive.Set(int64(e.q.Len()))
	e.ob.queueHigh.Observe(uint64(e.q.HighWater()))
	out, in, _ := e.csr.RepresentationMix()
	e.ob.inlineOut.Set(int64(out))
	e.ob.inlineIn.Set(int64(in))
}

// publishWorker attributes one parallel worker's phase counters to its
// series, advancing the published baseline so FlushObs does not re-attribute
// them to worker 0.
func (e *Engine) publishWorker(id int, pw *peWorker) {
	o := e.ob
	st := &pw.st
	e.obPub.Add(st)
	w := o.worker(id)
	w.processed.Add(st.EventsProcessed)
	w.coalesced.Add(st.EventsCoalesced)
	w.generated.Add(st.EventsGenerated)
	w.forwarded.Add(pw.forwarded)
	w.rounds.Add(st.Rounds)
	w.idleSpins.Add(pw.idleSpins)
	w.parks.Add(pw.parks)
	w.shardHigh.Observe(uint64(pw.shard.HighWater()))
	if len(pw.sent) > 0 {
		m := o.pairMatrix(len(pw.sent))
		for d, n := range pw.sent {
			if n > 0 {
				m.Add(id, d, n)
			}
		}
	}
	o.Tr.Trace(obs.TraceEvent{Kind: obs.KindWorkerDrain, Seq: o.nextSeq(), Worker: id,
		A: st.EventsProcessed, B: pw.forwarded})
}

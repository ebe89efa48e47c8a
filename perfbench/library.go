package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"jetstream"
	"jetstream/internal/core"
)

// setupReps and restoreReps are how many times a run sets up and restarts,
// so setup_s and recover_s are medians.
const (
	setupReps   = 3
	restoreReps = 11
)

// traceBlock is the run length of traced and untraced batches a traced run
// alternates, so the tracing overhead is measured on the same graph.
const traceBlock = 32

// readEvery is the batch cadence of state reads beside the writes.
const readEvery = 8

// libSpec is a workload that drives one System through the library API.
type libSpec struct {
	graph  func(p params) *jetstream.Graph
	alg    func() jetstream.Algorithm
	opts   []jetstream.Option // the measured System; Parallelism always pinned
	stream jetstream.StreamConfig
	// perSecond is the nominal timed batch count per --seconds.
	perSecond int
	// readEvery is the batch cadence of state reads, chosen so a run has a
	// few hundred reads.
	readEvery int
	// parallel marks the one workload on the parallel engine; its p=1
	// reference doubles as the single-threaded baseline.
	parallel bool
}

// runTrickle: small batches on the parallel engine, where fixed per-batch
// costs (sharded-queue rebuild, idle spinning, graph delta) dominate.
func runTrickle(p params, r *report) error {
	return runLibrary(p, r, libSpec{
		graph: func(p params) *jetstream.Graph {
			return jetstream.RMAT(jetstream.RMATConfig{Vertices: p.n(100_000, 512), Edges: p.n(1_000_000, 4096), Seed: p.seed})
		},
		alg:       func() jetstream.Algorithm { return jetstream.SSSP(0) },
		opts:      []jetstream.Option{jetstream.WithParallelism(2), jetstream.WithTiming(false)},
		stream:    jetstream.StreamConfig{BatchSize: 100, InsertFrac: 0.7},
		perSecond: 300,
		readEvery: readEvery,
		parallel:  true,
	})
}

// runTimed: the paper's view — the accumulative kernel through the drain
// path with the cycle and DRAM model on (which forces one worker).
func runTimed(p params, r *report) error {
	return runLibrary(p, r, libSpec{
		graph: func(p params) *jetstream.Graph {
			return jetstream.WebCrawl(jetstream.WebCrawlConfig{Vertices: p.n(40_000, 512), AvgDegree: 9, Locality: 16, LongRange: 0.1, Seed: p.seed})
		},
		alg:       func() jetstream.Algorithm { return jetstream.PageRank(1e-4) },
		opts:      []jetstream.Option{jetstream.WithParallelism(1), jetstream.WithTiming(true)},
		stream:    jetstream.StreamConfig{BatchSize: 100, InsertFrac: 0.7, Locality: 48},
		perSecond: 100,
		readEvery: 1,
	})
}

// drawBatches pre-draws a workload's whole stream from the seed against a
// private single-threaded reference System, timing the reference's own
// ApplyBatch calls. Drawing never touches the measured System: the stream
// generator builds a lazy rank index on the graph head it reads, and drawing
// inside the timed loop would charge the generator to the acks. The
// reference's final state is the correctness oracle.
func drawBatches(g *jetstream.Graph, alg jetstream.Algorithm, sc jetstream.StreamConfig, n int, opts ...jetstream.Option) (batches []jetstream.Batch, acks []time.Duration, final []float64, err error) {
	ref, err := jetstream.New(g, alg, opts...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reference: %w", err)
	}
	ref.RunInitial()
	gen := jetstream.NewStream(sc)
	batches = make([]jetstream.Batch, n)
	acks = make([]time.Duration, n)
	for i := range batches {
		b := gen.Next(ref.Graph())
		t0 := time.Now()
		if _, err := ref.ApplyBatch(b); err != nil {
			return nil, nil, nil, fmt.Errorf("reference batch %d: %w", i, err)
		}
		acks[i] = time.Since(t0)
		batches[i] = b
	}
	return batches, acks, ref.State(), nil
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func runLibrary(p params, r *report, spec libSpec) error {
	sc := spec.stream
	sc.Seed = p.seed*7919 + 1
	n := 1 + p.n(spec.perSecond*p.seconds, 2*traceBlock)
	g := spec.graph(p)
	batches, refAcks, want, err := drawBatches(g, spec.alg(), sc, n, jetstream.WithParallelism(1), jetstream.WithTiming(false))
	if err != nil {
		return err
	}

	var rec *recorder
	var tr tracedRun
	opts := spec.opts
	if p.trace {
		rec = newRecorder()
		opts = append(opts[:len(opts):len(opts)], jetstream.WithObserver(rec))
	}

	// Set-up: New + RunInitial + the first batch, whose one-time costs (the
	// compacting rebuild of the dense initial graph) stay out of the acks.
	var l loop
	var sys *jetstream.System
	for range setupReps {
		runtime.GC()
		t0 := time.Now()
		s, err := jetstream.New(g, spec.alg(), opts...)
		if err != nil {
			return fmt.Errorf("new: %w", err)
		}
		t1 := time.Now()
		s.RunInitial()
		t2 := time.Now()
		if _, err := s.ApplyBatch(batches[0]); err != nil {
			return fmt.Errorf("first batch: %w", err)
		}
		l.setups = append(l.setups, time.Since(t0))
		tr.newT, tr.initT = append(tr.newT, t1.Sub(t0)), append(tr.initT, t2.Sub(t1))
		sys = s
	}

	// The traced run times the graph layer on its own: a mirror CSR takes
	// every batch through ApplyDelta in lockstep with the System.
	var mirror *jetstream.Graph
	if p.trace {
		if mirror, err = g.ApplyDelta(batches[0]); err != nil {
			return fmt.Errorf("mirror: %w", err)
		}
	}
	g = nil

	var sim time.Duration
	spins0 := idleSpins(sys)
	m := startMeter()
	for i := 1; i < n; i++ {
		b := batches[i]
		if rec != nil {
			rec.on.Store((i/traceBlock)%2 == 1)
		}
		t0 := time.Now()
		res, err := sys.ApplyBatch(b)
		d := time.Since(t0)
		l.attempted++
		if err != nil {
			l.failed++
			continue
		}
		l.acks = append(l.acks, d)
		l.updates += uint64(b.Size())
		l.events += res.Stats.EventsProcessed
		sim += res.Duration
		if rec != nil {
			tr.observe(rec, i, t0, d, res, b.Size())
			t1 := time.Now()
			if mirror, err = mirror.ApplyDelta(b); err != nil {
				return fmt.Errorf("mirror batch %d: %w", i, err)
			}
			tr.deltas = append(tr.deltas, time.Since(t1))
		}
		if i%spec.readEvery == 0 {
			t1 := time.Now()
			_ = sys.State()
			l.reads = append(l.reads, time.Since(t1))
		}
	}
	l.wall, l.cpu, l.alloc = m.stop()
	batches, mirror = nil, nil
	l.heapMB = liveHeapMB()

	got := sys.State()
	if !bitwiseEqual(got, want) {
		r.fail("final state differs from the single-threaded reference")
	}
	applied := int(sys.Batches())
	if v, tol := sys.Verify(), core.Tolerance(spec.alg(), sys.Graph().NumEdges(), applied); !(v <= tol) {
		r.fail("Verify() = %g exceeds tolerance %g after %d batches", v, tol, applied)
	}

	// Restart: restore the final state from a checkpoint.
	var ckpt bytes.Buffer
	if err := sys.Checkpoint(&ckpt); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for range restoreReps {
		runtime.GC()
		t0 := time.Now()
		s, err := jetstream.Restore(bytes.NewReader(ckpt.Bytes()), spec.opts...)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		l.recovers = append(l.recovers, time.Since(t0))
		if !bitwiseEqual(s.StateRef(), got) {
			r.fail("restored state differs from the checkpointed state")
		}
	}

	if !p.trace {
		l.endToEnd(r)
		return nil
	}
	r.Attempted, r.Failed = l.attempted, l.failed
	if l.failed > 0 {
		r.fail("%d of %d batches failed", l.failed, l.attempted)
	}
	tr.report(r, sys)
	batchesN := float64(tr.batches)
	r.set("engine.idle_spins_per_batch", float64(idleSpins(sys)-spins0)/batchesN, "count")
	if spec.parallel {
		r.set("engine.p1_over_p2_ack", float64(quantile(refAcks[1:], 0.5))/float64(quantile(l.acks, 0.5)), "ratio")
	} else {
		r.set("engine.p1_over_p2_ack", 0, "ratio")
	}
	timedStats(r, tr.sum, sim, batchesN, l.acks, refAcks[1:])
	noServiceLayers(r)
	return writeSpans(p.out(), tr.spans)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// idleSpins sums the parallel workers' idle spins so far.
func idleSpins(s *jetstream.System) uint64 {
	var n uint64
	for _, w := range s.Metrics().Workers {
		n += w.IdleSpins
	}
	return n
}

// graphStats reports the graph layer: mirror ApplyDelta times and the
// layout of the System's current graph version.
func graphStats(r *report, g *jetstream.Graph, deltas []time.Duration) {
	r.set("graph.delta_us_p50", us(quantile(deltas, 0.50)), "us")
	r.set("graph.delta_us_p99", us(quantile(deltas, 0.99)), "us")
	r.set("graph.slot_overhead", float64(g.EdgeSlots())/float64(max(g.NumEdges(), 1)), "ratio")
	out, in, nv := g.RepresentationMix()
	r.set("graph.inline_frac", float64(out+in)/float64(2*max(nv, 1)), "ratio")
}

// timedStats reports the simulator, memory and crossbar models; all zero
// when the timing model is off. host_ms_per_batch is the measured ack
// median minus the timing-off reference's.
func timedStats(r *report, sum jetstream.Counters, sim time.Duration, batches float64, acks, refAcks []time.Duration) {
	ev := float64(max(sum.EventsProcessed, 1))
	r.set("sim.us_per_batch", us(sim)/batches, "us")
	r.set("sim.cycles_per_event", float64(sum.Cycles)/ev, "count")
	r.set("mem.dram_accesses_per_event", float64(sum.DRAMAccesses)/ev, "count")
	r.set("mem.row_hit_ratio", ratio(sum.RowHits, sum.DRAMAccesses), "ratio")
	r.set("mem.useful_bytes_ratio", ratio(sum.BytesUsed, sum.BytesTransferred), "ratio")
	if sum.Cycles == 0 {
		r.set("sim.host_ms_per_batch", 0, "ms")
		r.set("noc.events_per_batch", 0, "count")
		return
	}
	r.set("sim.host_ms_per_batch", ms(quantile(acks, 0.5)-quantile(refAcks, 0.5)), "ms")
	// Every generated event crosses the modeled crossbar to its bin.
	r.set("noc.events_per_batch", float64(sum.EventsGenerated)/batches, "count")
}

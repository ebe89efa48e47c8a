package engine

import (
	"runtime"
	"testing"

	"jetstream/internal/algo"
	"jetstream/internal/event"
	"jetstream/internal/graph"
)

// requestSeeds emits a request-flagged event at each of vs and runs one
// compute phase: every seeded vertex of a selective kernel re-propagates its
// converged value, so the phase does a bounded amount of work (the seeds'
// out-degrees) that does not depend on the graph's size. Accumulative seeds
// carry a zero delta, which changes nothing and propagates nothing.
// ChargeSetup closes the emission window the way the streaming scheduler
// does between phases.
func requestSeeds(e *Engine, vs []graph.VertexID) {
	st := e.State()
	acc := e.alg.Class() == algo.Accumulative
	for _, v := range vs {
		x := st[v]
		if acc {
			x = 0
		}
		e.Emit(event.Event{Target: v, Value: x, Source: event.NoSource, Flags: event.FlagRequest})
	}
	e.ChargeSetup(nil, nil)
	e.RunCompute()
}

// spreadVertices returns k vertices spaced evenly over [0, n).
func spreadVertices(n, k int) []graph.VertexID {
	vs := make([]graph.VertexID, k)
	for i := range vs {
		vs[i] = graph.VertexID(i * n / k)
	}
	return vs
}

// assertQuiescent checks that the persistent parallel state holds nothing
// between phases: no shard event, staged mail, in-flight mail or token.
func assertQuiescent(t *testing.T, e *Engine) {
	t.Helper()
	r := e.par
	if n := r.sq.Len(); n != 0 {
		t.Fatalf("%d events left in the shards after the phase", n)
	}
	if n := r.outstanding.Load(); n != 0 {
		t.Fatalf("outstanding = %d after the phase", n)
	}
	for _, w := range r.workers {
		if w.staged() {
			t.Fatalf("worker %d has staged mail after the phase", w.id)
		}
		for src, ch := range w.inbox {
			if ch != nil && len(ch) != 0 {
				t.Fatalf("worker %d has %d undelivered batches from %d", w.id, len(ch), src)
			}
		}
	}
	if n := e.Queue().Len(); n != 0 {
		t.Fatalf("sequential queue holds %d events after a parallel phase", n)
	}
}

// TestParallelStatePersistsAcrossPhases pins the reuse contract: the state
// built by the first parallel phase serves every later one, and each phase
// leaves it empty — for every kernel, at p 2 and 8, bitwise (selective) or
// within the truncation bound (accumulative) of the sequential engine driven
// through the same phases.
func TestParallelStatePersistsAcrossPhases(t *testing.T) {
	for _, p := range []int{2, 8} {
		for _, name := range algo.Names() {
			a := makeAlg(t, name)
			g := testGraphFor(a, 21)
			seq := New(g, makeAlg(t, name), parallelConfig(1), nil)
			par := New(g, a, parallelConfig(p), nil)
			if par.par != nil {
				t.Fatalf("%s p=%d: parallel state built before any phase", name, p)
			}
			seq.RunToConvergence()
			par.RunToConvergence()
			built := par.par
			if built == nil || len(built.workers) != p {
				t.Fatalf("%s p=%d: no %d-worker state after the first phase", name, p, p)
			}
			assertQuiescent(t, par)
			for round := 0; round < 4; round++ {
				if round == 2 {
					seq.RunToConvergence()
					par.RunToConvergence()
				}
				vs := spreadVertices(g.NumVertices(), 16+round)
				requestSeeds(seq, vs)
				requestSeeds(par, vs)
				if par.par != built {
					t.Fatalf("%s p=%d round %d: parallel state rebuilt without cause", name, p, round)
				}
				assertQuiescent(t, par)
			}
			d := algo.MaxAbsDiff(seq.State(), par.State())
			if a.Class() == algo.Selective && d != 0 {
				t.Errorf("%s p=%d: state differs from sequential by %v", name, p, d)
			} else if d > tolFor(a, g) {
				t.Errorf("%s p=%d: state differs from sequential by %v", name, p, d)
			}
		}
	}
}

// TestParallelStateRebuiltOnInvalidation: Repartition and a change in the
// worker count drop the persistent state, and the next parallel phase
// rebuilds it — with the right shape and still-correct results.
func TestParallelStateRebuiltOnInvalidation(t *testing.T) {
	a := algo.NewSSSP(0)
	g := testGraphFor(a, 33)
	ref := New(g, algo.NewSSSP(0), parallelConfig(1), nil)
	ref.RunToConvergence()

	e := New(g, a, parallelConfig(2), nil)
	e.RunToConvergence()
	first := e.par
	if e.Repartition() != -1 {
		t.Fatal("unsliced Repartition reported a cut")
	}
	if e.par != nil || e.owner != nil {
		t.Fatal("Repartition kept the parallel state")
	}
	e.RunToConvergence()
	if e.par == nil || e.par == first || len(e.par.workers) != 2 {
		t.Fatal("phase after Repartition did not rebuild a 2-worker state")
	}
	if d := algo.MaxAbsDiff(ref.State(), e.State()); d != 0 {
		t.Fatalf("after Repartition: state differs by %v", d)
	}

	second := e.par
	e.cfg.Parallelism = 8
	e.RunToConvergence()
	if e.par == second || len(e.par.workers) != 8 || len(e.owner) != g.NumVertices() || e.ownerK != 8 {
		t.Fatal("worker-count change did not rebuild an 8-worker state")
	}
	assertQuiescent(t, e)
	if d := algo.MaxAbsDiff(ref.State(), e.State()); d != 0 {
		t.Fatalf("after p change: state differs by %v", d)
	}

	// A sequential-only interlude (trace hook) leaves the state untouched.
	third := e.par
	e.SetTrace(func(event.Event) {})
	e.RunToConvergence()
	e.SetTrace(nil)
	e.RunToConvergence()
	if e.par != third {
		t.Fatal("sequential interlude rebuilt the parallel state")
	}
	if d := algo.MaxAbsDiff(ref.State(), e.State()); d != 0 {
		t.Fatalf("after sequential interlude: state differs by %v", d)
	}
}

// ringGraph builds an n-vertex graph in which every vertex has the same
// three out-edges pattern, so a phase seeded at a fixed number of vertices
// does the same work at any n.
func ringGraph(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, 3*n)
	for v := 0; v < n; v++ {
		for i, d := range []int{1, 5, n / 3} {
			edges = append(edges, graph.Edge{
				Src: graph.VertexID(v), Dst: graph.VertexID((v + d) % n), Weight: graph.Weight(1 + i),
			})
		}
	}
	return graph.MustBuild(n, edges)
}

// TestParallelPhaseAllocationIndependentOfV is the O(delta) gate for the
// parallel compute phase: once warm, a seeded phase at p=2 allocates the
// same number of objects and (within a small constant) bytes on a 20k- and
// a 200k-vertex graph. Any per-phase O(V) structure — the sharded queue
// rebuild this replaced was one — fails it by hundreds of kilobytes.
func TestParallelPhaseAllocationIndependentOfV(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-vertex graph")
	}
	const seeds, warm, runs = 64, 20, 50
	measure := func(n int) (allocs float64, bytes uint64) {
		e := New(ringGraph(n), algo.NewSSSP(0), parallelConfig(2), nil)
		e.RunToConvergence()
		vs := spreadVertices(n, seeds)
		phase := func() { requestSeeds(e, vs) }
		for i := 0; i < warm; i++ {
			phase()
		}
		allocs = testing.AllocsPerRun(runs, phase)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			phase()
		}
		runtime.ReadMemStats(&m1)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	smallA, smallB := measure(20000)
	bigA, bigB := measure(200000)
	t.Logf("per phase: V=20k %.1f allocs %d B; V=200k %.1f allocs %d B", smallA, smallB, bigA, bigB)
	const slackAllocs, slackBytes = 2, 1024
	if d := bigA - smallA; d > slackAllocs || d < -slackAllocs {
		t.Errorf("allocs per phase depend on V: %.1f at 20k, %.1f at 200k", smallA, bigA)
	}
	if d := int64(bigB) - int64(smallB); d > slackBytes || d < -slackBytes {
		t.Errorf("bytes per phase depend on V: %d at 20k, %d at 200k", smallB, bigB)
	}
}

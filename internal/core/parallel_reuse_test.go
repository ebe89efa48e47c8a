package core

import (
	"fmt"
	"math"
	"testing"

	"jetstream/internal/algo"
	"jetstream/internal/graph"
	"jetstream/internal/stats"
	"jetstream/internal/stream"
)

// TestParallelStateSurvivesPhaseAlternation drives the persistent parallel
// compute state through everything else a batch does between its phases:
// the sequential delete-recovery phases run on the queue slots the shards
// share, with coalescing off under DAP (and everywhere under NoCoalesce, so
// the shards run their overflow path too). After every batch the state must
// be bitwise-equal to the sequential engine's and the event conservation law
// must hold. Run it under -race: the shards, mail buffers and round barrier
// cross goroutines on every phase.
func TestParallelStateSurvivesPhaseAlternation(t *testing.T) {
	for _, name := range algo.Names() {
		if a, _ := algo.New(name, 0, 0); a.Class() != algo.Selective {
			continue
		}
		for _, p := range []int{2, 8} {
			for _, noCoalesce := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p%d/nocoalesce=%v", name, p, noCoalesce), func(t *testing.T) {
					a, _ := algo.New(name, 0, 0)
					g := graph.RMAT(graph.RMATConfig{Vertices: 600, Edges: 4800, Seed: 17})
					sym := algo.NeedsSymmetric(a)
					if sym {
						g = graph.Symmetrize(g)
					}
					build := func(p int) (*JetStream, *stats.Counters) {
						aa, _ := algo.New(name, 0, 0)
						cfg := cfgOpt(OptDAP, false)
						cfg.Engine.Parallelism = p
						cfg.NoCoalesce = noCoalesce
						st := &stats.Counters{}
						js := New(g, aa, cfg, st)
						js.RunInitial()
						return js, st
					}
					seq, _ := build(1)
					par, st := build(p)
					gen := stream.NewGenerator(stream.Config{
						BatchSize: 80, InsertFrac: 0.5, Symmetric: sym, Seed: 23,
					})
					for batch := 0; batch < 6; batch++ {
						b := gen.Next(seq.Graph())
						if err := seq.ApplyBatch(b); err != nil {
							t.Fatal(err)
						}
						if err := par.ApplyBatch(b); err != nil {
							t.Fatal(err)
						}
						if d := algo.MaxAbsDiff(seq.State(), par.State()); d != 0 {
							t.Fatalf("batch %d: p=%d state differs from p=1 by %v", batch, p, d)
						}
						if r := st.EventsUnaccounted(); r != 0 {
							t.Fatalf("batch %d: %d events unaccounted", batch, r)
						}
					}
				})
			}
		}
	}
}

// TestParallelAccumulativeDeterministic pins the round-synchronous parallel
// engine's guarantee: an accumulative stream's result is a function of the
// input and the worker count only. Two runs through RunInitial and four
// batches at the same parallelism must agree bit for bit in every vertex and
// process the same number of events, and the event conservation law must
// hold at quiescence after every batch. The 1200-vertex graph gives each p=2
// shard several queue rows, so same-round local inserts into later rows are
// covered as well as cross-worker mail.
func TestParallelAccumulativeDeterministic(t *testing.T) {
	graphs := []graph.RMATConfig{
		{Vertices: 200, Edges: 1600, Seed: 91},
		{Vertices: 1200, Edges: 9600, Seed: 5},
	}
	for _, name := range []string{"pagerank", "adsorption"} {
		for _, gc := range graphs {
			for _, p := range []int{2, 8} {
				t.Run(fmt.Sprintf("%s/v%d/p%d", name, gc.Vertices, p), func(t *testing.T) {
					g := graph.RMAT(gc)
					run := func() ([]float64, uint64) {
						a, _ := algo.New(name, 0, 1e-10)
						cfg := cfgOpt(OptDAP, false)
						cfg.Engine.Parallelism = p
						st := &stats.Counters{}
						js := New(g, a, cfg, st)
						js.RunInitial()
						gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0.6, Seed: 93})
						for batch := 0; batch < 4; batch++ {
							if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
								t.Fatal(err)
							}
							if r := st.EventsUnaccounted(); r != 0 {
								t.Fatalf("batch %d: %d events unaccounted", batch, r)
							}
						}
						return js.State(), st.EventsProcessed
					}
					s1, n1 := run()
					s2, n2 := run()
					if n1 != n2 {
						t.Errorf("events processed differ between runs: %d vs %d", n1, n2)
					}
					for v := range s1 {
						if math.Float64bits(s1[v]) != math.Float64bits(s2[v]) {
							t.Fatalf("vertex %d differs between runs: %v vs %v", v, s1[v], s2[v])
						}
					}
				})
			}
		}
	}
}

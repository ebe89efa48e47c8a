package core

import (
	"fmt"
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
// must hold. Run it under -race: the shards, mail buffers and wake tokens
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

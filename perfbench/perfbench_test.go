package main

import (
	"math"
	"testing"

	"jetstream"
)

// small runs a workload at a small scale and fails the test on an error or
// a correctness mismatch.
func small(t *testing.T, w workload, name string, seed int64, trace bool) map[string]float64 {
	t.Helper()
	p := params{name: name, seed: seed, seconds: 1, trace: trace, workdir: t.TempDir(), outdir: t.TempDir(), scale: 0.02}
	r := &report{Correct: true, Metrics: map[string]metric{}}
	if err := w(p, r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, r.Correct, r.Attempted, r.Failed)
	}
	out := map[string]float64{}
	for k, m := range r.Metrics {
		out[k] = m.Value
	}
	return out
}

// TestSameSeedSameCounts: on the single-worker workloads the counts the
// program makes repeat exactly for a seed.
func TestSameSeedSameCounts(t *testing.T) {
	cases := []struct {
		name  string
		w     workload
		e2e   []string
		layer []string
	}{
		{"webcrawl-pagerank-timed", runTimed, []string{"events_per_update"}, []string{"sim.us_per_batch", "sim.cycles_per_event", "noc.events_per_batch"}},
		{"tenants-window-wal", runTenants, []string{"events_per_update"}, []string{"wal.bytes_per_update", "window.expired_per_batch", "wal.syncs_per_batch"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				keys := c.e2e
				if traced {
					keys = c.layer
				}
				a := small(t, c.w, c.name, 3, traced)
				b := small(t, c.w, c.name, 3, traced)
				for _, k := range keys {
					if a[k] == 0 || a[k] != b[k] {
						t.Errorf("%s: %v then %v", k, a[k], b[k])
					}
				}
			}
		})
	}
}

// TestParallelCountsClose: at two workers the event count may differ by a
// few events per batch from run to run, never by more than a percent.
func TestParallelCountsClose(t *testing.T) {
	a := small(t, runTrickle, "rmat-sssp-trickle", 3, false)["events_per_update"]
	b := small(t, runTrickle, "rmat-sssp-trickle", 3, false)["events_per_update"]
	if a == 0 || math.Abs(a-b) > 0.01*a {
		t.Errorf("events_per_update %v then %v", a, b)
	}
}

// TestTracedRunPartitions: every traced batch splits into pre-phase,
// phases, gaps and post-phase self-times that sum to its span.
func TestTracedRunPartitions(t *testing.T) {
	m := small(t, runTrickle, "rmat-sssp-trickle", 4, true)
	if m["trace.batches"] == 0 || m["trace.unpartitioned_batches"] != 0 {
		t.Errorf("traced %v batches, %v unpartitioned", m["trace.batches"], m["trace.unpartitioned_batches"])
	}
}

// TestSeedChangesInputs: the seed drives the generated graph and stream.
func TestSeedChangesInputs(t *testing.T) {
	draw := func(seed int64) []jetstream.Batch {
		p := params{seed: seed, seconds: 1, scale: 0.02}
		g := jetstream.RMAT(jetstream.RMATConfig{Vertices: p.n(100_000, 512), Edges: p.n(1_000_000, 4096), Seed: seed})
		bs, _, _, err := drawBatches(g, jetstream.SSSP(0), jetstream.StreamConfig{BatchSize: 100, InsertFrac: 0.7, Seed: seed}, 4,
			jetstream.WithParallelism(1), jetstream.WithTiming(false))
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !sameBatches(a, b) {
		t.Error("seed 1 drew two different streams")
	}
	if sameBatches(a, c) {
		t.Error("seeds 1 and 2 drew the same stream")
	}
	ta, err := drawTenant(params{seed: 1, scale: 0.02}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := drawTenant(params{seed: 2, scale: 0.02}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ta.req.Graph.Seed == tc.req.Graph.Seed || sameBatches(ta.batches, tc.batches) {
		t.Error("seeds 1 and 2 drew the same tenant inputs")
	}
}

func sameBatches(a, b []jetstream.Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Inserts) != len(b[i].Inserts) || len(a[i].Deletes) != len(b[i].Deletes) {
			return false
		}
		for j := range a[i].Inserts {
			if a[i].Inserts[j] != b[i].Inserts[j] {
				return false
			}
		}
		for j := range a[i].Deletes {
			if a[i].Deletes[j] != b[i].Deletes[j] {
				return false
			}
		}
	}
	return true
}

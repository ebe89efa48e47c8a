package queue

import (
	"math/rand"
	"testing"

	"jetstream/internal/event"
)

// These tests pin the occupancy-bitmap invariant the sparse drain depends on:
// a row's rowOcc bit is set exactly when the row holds at least one live slot,
// and rowLive always equals the popcount of the row's slot bits. The suspected
// leak — a delete-storm batch removing a vertex's last queued event leaving
// its occupancy bit behind — was investigated and does not reproduce: drainRow
// clears every drained bit and drops rowOcc when rowLive hits zero, including
// on partial-word rows (rowSize not a multiple of 64) and reinsertion during a
// drain. The regression tests below hold that line.

// checkOccInvariant verifies rowOcc/rowLive/count against the slot words.
func checkOccInvariant(t *testing.T, o *occupancy, n int) {
	t.Helper()
	total := 0
	rows := (n + o.rowSize - 1) / o.rowSize
	for row := 0; row < rows; row++ {
		live := 0
		lo, hi := row*o.rowSize, (row+1)*o.rowSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if o.words[i>>6]&(1<<(uint(i)&63)) != 0 {
				live++
			}
		}
		if int(o.rowHdr[row].live) != live {
			t.Fatalf("row %d: rowLive=%d, slot bits say %d", row, o.rowHdr[row].live, live)
		}
		occBit := o.rowOcc[row>>6]&(1<<(uint(row)&63)) != 0
		if occBit != (live > 0) {
			t.Fatalf("row %d: occupancy bit %v with %d live slots", row, occBit, live)
		}
		total += live
	}
	if o.count != total {
		t.Fatalf("count=%d, slot bits say %d", o.count, total)
	}
}

// TestOccupancyBitClearsOnLastDrain is the delete-storm regression shape:
// every queued event for a region drains in one round (a victim vertex losing
// its last edge enqueues exactly one recovery event, which then drains), and
// no occupancy bit may survive the drain.
func TestOccupancyBitClearsOnLastDrain(t *testing.T) {
	const n, rowSize = 1000, 100 // rowSize deliberately not a multiple of 64
	q := New(n, Config{RowSize: rowSize}, minCoalesce(), nil)
	rng := rand.New(rand.NewSource(41))
	// Storm: a single event on a scatter of vertices, many of them the sole
	// event of their row, including both row boundaries of a partial word.
	targets := map[int]bool{0: true, 99: true, 100: true, 999: true}
	for len(targets) < 60 {
		targets[rng.Intn(n)] = true
	}
	for v := range targets {
		q.Insert(event.New(uint32(v), float64(v)))
	}
	checkOccInvariant(t, q.occ, n)
	drained := 0
	q.DrainRound(func(b []event.Event) { drained += len(b) })
	if drained != len(targets) {
		t.Fatalf("drained %d, want %d", drained, len(targets))
	}
	if !q.Empty() {
		t.Fatalf("queue reports %d live after full drain", q.Len())
	}
	checkOccInvariant(t, q.occ, n)
	if got := q.occ.nextRow(0); got != -1 {
		t.Fatalf("occupancy bit leaked: nextRow(0)=%d after full drain", got)
	}
	// The region must be reusable: reinsert into previously-drained rows.
	q.Insert(event.New(99, 1))
	q.Insert(event.New(100, 2))
	checkOccInvariant(t, q.occ, n)
	if q.Len() != 2 {
		t.Fatalf("Len=%d after reinsert, want 2", q.Len())
	}
}

// TestOccupancyInvariantUnderChurn drives randomized insert/drain interleaving
// (including reinsertion from inside the drain callback, the recovery-phase
// pattern) and checks the bitmap invariant after every round.
func TestOccupancyInvariantUnderChurn(t *testing.T) {
	const n, rowSize = 640, 100
	q := New(n, Config{RowSize: rowSize}, minCoalesce(), nil)
	rng := rand.New(rand.NewSource(43))
	for round := 0; round < 50; round++ {
		for k := rng.Intn(40); k > 0; k-- {
			q.Insert(event.New(uint32(rng.Intn(n)), rng.Float64()))
		}
		reinserted := 0
		q.DrainRound(func(b []event.Event) {
			// Occasionally echo an event back mid-drain: same row, earlier
			// row, and later row targets all occur over the run.
			if reinserted < 5 && rng.Float64() < 0.3 {
				q.Insert(event.New(uint32(rng.Intn(n)), 1))
				reinserted++
			}
		})
		checkOccInvariant(t, q.occ, n)
	}
	// Drain to empty and confirm nothing leaked.
	q.Drain(func([]event.Event) {})
	if !q.Empty() {
		t.Fatalf("%d events left after Drain", q.Len())
	}
	checkOccInvariant(t, q.occ, n)
	if got := q.occ.nextRow(0); got != -1 {
		t.Fatalf("occupancy bit leaked: nextRow(0)=%d on empty queue", got)
	}
}

// TestShardOccupancyClearsOnLastDrain covers the dense-local-index Shard
// variant of the same drain loop.
func TestShardOccupancyClearsOnLastDrain(t *testing.T) {
	owner := make([]int32, 300)
	sq := testSharded(2, owner, Config{RowSize: 100}, minCoalesce(), true)
	sh := sq.Shard(0)
	for _, v := range []uint32{0, 99, 100, 250} {
		sh.Insert(event.New(v, float64(v)))
	}
	drained := 0
	sh.DrainRound(func(b []event.Event) { drained += len(b) })
	if drained != 4 {
		t.Fatalf("drained %d, want 4", drained)
	}
	if !sh.Empty() {
		t.Fatalf("shard reports %d live after full drain", sh.Len())
	}
	if got := sh.occ.nextRow(0); got != -1 {
		t.Fatalf("shard occupancy bit leaked: nextRow(0)=%d", got)
	}
	sh.Insert(event.New(99, 7))
	if sh.Len() != 1 {
		t.Fatalf("shard Len=%d after reinsert, want 1", sh.Len())
	}
}

package queue

import (
	"testing"

	"jetstream/internal/event"
)

func shardMinCoalesce(old, in event.Event) event.Event {
	if in.Value < old.Value {
		old.Value = in.Value
		old.Source = in.Source
	}
	old.Flags |= in.Flags
	return old
}

// testSharded builds K shards over a fresh queue's slots in the given
// coalescing mode.
func testSharded(k int, owner []int32, cfg Config, fn Coalesce, coalescing bool) *Sharded {
	sq := New(len(owner), cfg, fn, nil).Sharded(k, owner)
	sq.SetCoalescing(coalescing)
	return sq
}

// stripedOwner assigns vertex v to shard v % k.
func stripedOwner(n, k int) []int32 {
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % k)
	}
	return owner
}

func TestShardedRoutingAndLen(t *testing.T) {
	const n, k = 10, 3
	sq := testSharded(k, stripedOwner(n, k), Config{RowSize: 4}, shardMinCoalesce, true)
	if sq.K() != k {
		t.Fatalf("K() = %d, want %d", sq.K(), k)
	}
	for v := 0; v < n; v++ {
		if got, want := sq.Owner(uint32(v)), v%k; got != want {
			t.Fatalf("Owner(%d) = %d, want %d", v, got, want)
		}
		sq.Shard(sq.Owner(uint32(v))).Insert(event.New(uint32(v), float64(v)))
	}
	if sq.Len() != n {
		t.Fatalf("Len() = %d, want %d", sq.Len(), n)
	}
	// Shard 0 owns 0,3,6,9; shard 1 owns 1,4,7; shard 2 owns 2,5,8.
	for i, want := range []int{4, 3, 3} {
		if got := sq.Shard(i).Len(); got != want {
			t.Errorf("shard %d Len = %d, want %d", i, got, want)
		}
	}
}

func TestShardCoalescesLikeSequentialQueue(t *testing.T) {
	sq := testSharded(2, stripedOwner(8, 2), Config{RowSize: 4}, shardMinCoalesce, true)
	s := sq.Shard(0)
	if s.Insert(event.Event{Target: 4, Value: 9, Source: 1}) {
		t.Fatal("first insert reported coalesced")
	}
	if !s.Insert(event.Event{Target: 4, Value: 3, Source: 2}) {
		t.Fatal("second insert for the occupied slot not coalesced")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after coalescing, want 1", s.Len())
	}
	var got []event.Event
	s.DrainRound(func(b []event.Event) { got = append(got, b...) })
	if len(got) != 1 || got[0].Value != 3 || got[0].Source != 2 {
		t.Fatalf("coalesced event = %+v, want value 3 from source 2", got)
	}
}

func TestShardOverflowWhenCoalescingOff(t *testing.T) {
	sq := testSharded(1, stripedOwner(4, 1), Config{RowSize: 4}, shardMinCoalesce, false)
	s := sq.Shard(0)
	s.Insert(event.New(2, 1))
	if s.Insert(event.New(2, 2)) {
		t.Fatal("non-coalescing shard reported a merge")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (slot + overflow)", s.Len())
	}
	var got []float64
	s.DrainRound(func(b []event.Event) {
		for _, e := range b {
			got = append(got, e.Value)
		}
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drain order %v, want slot first then overflow FIFO", got)
	}
}

func TestShardDrainRoundAscendingLocalOrder(t *testing.T) {
	// Shard 0 of a 2-way stripe over 8 vertices owns 0,2,4,6 at local
	// indices 0..3; a drain must emit them in that (ascending) order in
	// RowSize batches.
	sq := testSharded(2, stripedOwner(8, 2), Config{RowSize: 2}, shardMinCoalesce, true)
	s := sq.Shard(0)
	for _, v := range []uint32{6, 0, 4, 2} {
		s.Insert(event.New(v, float64(v)))
	}
	var order []uint32
	var batches int
	n := s.DrainRound(func(b []event.Event) {
		batches++
		if len(b) > 2 {
			t.Fatalf("batch of %d exceeds RowSize 2", len(b))
		}
		for _, e := range b {
			order = append(order, e.Target)
		}
	})
	if n != 4 || batches != 2 {
		t.Fatalf("emitted %d events in %d batches, want 4 in 2", n, batches)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("drain order %v not ascending", order)
		}
	}
	if !s.Empty() {
		t.Fatal("shard not empty after full drain")
	}
}

func TestShardedRejectsBadOwnership(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range owner accepted")
		}
	}()
	testSharded(2, []int32{0, 2}, Config{RowSize: 4}, shardMinCoalesce, true)
}

func TestShardInsertOutOfRangePanics(t *testing.T) {
	sq := testSharded(1, stripedOwner(2, 1), Config{RowSize: 4}, shardMinCoalesce, true)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range target accepted")
		}
	}()
	sq.Shard(0).Insert(event.New(7, 1))
}

// TestShardHighWater pins the peak-occupancy tracking: the high-water mark
// follows Len upward across both the slot and overflow paths, survives
// drains, and never decreases.
func TestShardHighWater(t *testing.T) {
	sq := testSharded(1, stripedOwner(8, 1), Config{RowSize: 4}, shardMinCoalesce, false)
	s := sq.Shard(0)
	if s.HighWater() != 0 {
		t.Fatalf("fresh shard HighWater = %d, want 0", s.HighWater())
	}
	s.Insert(event.New(1, 1))
	s.Insert(event.New(2, 1))
	s.Insert(event.New(2, 2)) // overflow path: slot 2 already occupied
	if got := s.HighWater(); got != 3 {
		t.Fatalf("HighWater = %d after 3 live events, want 3", got)
	}
	s.DrainRound(func([]event.Event) {})
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", s.Len())
	}
	if got := s.HighWater(); got != 3 {
		t.Fatalf("HighWater = %d after drain, want 3 (monotonic)", got)
	}
	s.Insert(event.New(3, 1))
	if got := s.HighWater(); got != 3 {
		t.Fatalf("HighWater = %d after refill below peak, want 3", got)
	}
}

// TestShardsShareQueueSlots pins the aliasing contract of
// Coalescing.Sharded: the shards live on the queue's own slot array, the
// queue and the shards take turns holding events, and the stale slot
// contents each side leaves behind never leak into the other's drains.
func TestShardsShareQueueSlots(t *testing.T) {
	const n, k = 12, 3
	q := New(n, Config{RowSize: 4}, shardMinCoalesce, nil)
	sq := q.Sharded(k, stripedOwner(n, k))
	if &sq.Shard(0).slots[:1][0] != &q.slots[0] {
		t.Fatal("shard 0 does not start at the queue's first slot")
	}

	var seeds []event.Event
	for turn := 0; turn < 3; turn++ {
		// Sequential side: fill every slot, then move the events out.
		for v := 0; v < n; v++ {
			q.Insert(event.Event{Target: uint32(v), Value: float64(100*turn + v), Source: uint32(turn)})
		}
		seeds = q.TakeAll(seeds[:0])
		if len(seeds) != n || q.Len() != 0 {
			t.Fatalf("turn %d: TakeAll moved %d of %d (queue keeps %d)", turn, len(seeds), n, q.Len())
		}
		// Parallel side: the seeds overwrite the shared slots; every event
		// must come back out of its owner's shard intact.
		for _, ev := range seeds {
			if sq.Shard(sq.Owner(ev.Target)).Insert(ev) {
				t.Fatalf("turn %d: seed %d coalesced with a stale slot", turn, ev.Target)
			}
		}
		got := make(map[uint32]float64)
		for i := 0; i < k; i++ {
			sq.Shard(i).DrainRound(func(b []event.Event) {
				for _, ev := range b {
					if sq.Owner(ev.Target) != i {
						t.Fatalf("turn %d: shard %d drained vertex %d it does not own", turn, i, ev.Target)
					}
					got[ev.Target] = ev.Value
				}
			})
		}
		if sq.Len() != 0 {
			t.Fatalf("turn %d: shards keep %d events after draining", turn, sq.Len())
		}
		for v := 0; v < n; v++ {
			if want := float64(100*turn + v); got[uint32(v)] != want {
				t.Fatalf("turn %d: vertex %d drained %v, want %v", turn, v, got[uint32(v)], want)
			}
		}
	}

	// A sparse sequential turn after the shards scribbled over every slot
	// sees only its own events.
	q.Insert(event.New(5, 1))
	var drained []event.Event
	q.DrainRound(func(b []event.Event) { drained = append(drained, b...) })
	if len(drained) != 1 || drained[0].Target != 5 || drained[0].Value != 1 {
		t.Fatalf("sequential drain after shard use = %+v, want only vertex 5", drained)
	}
}

// TestShardedSetCoalescing: the mode switch reaches every shard, so a
// persistent Sharded follows the queue's mode phase by phase.
func TestShardedSetCoalescing(t *testing.T) {
	q := New(8, Config{RowSize: 4}, shardMinCoalesce, nil)
	sq := q.Sharded(2, stripedOwner(8, 2))
	sq.SetCoalescing(false)
	for i := 0; i < 2; i++ {
		s := sq.Shard(i)
		s.Insert(event.New(uint32(i), 1))
		if s.Insert(event.New(uint32(i), 2)) {
			t.Fatalf("shard %d merged with coalescing off", i)
		}
	}
	if sq.Len() != 4 {
		t.Fatalf("Len = %d with coalescing off, want 4", sq.Len())
	}
	for i := 0; i < 2; i++ {
		sq.Shard(i).DrainRound(func([]event.Event) {})
	}
	sq.SetCoalescing(true)
	s := sq.Shard(0)
	s.Insert(event.New(0, 1))
	if !s.Insert(event.New(0, 2)) {
		t.Fatal("shard did not merge after coalescing was turned back on")
	}
}

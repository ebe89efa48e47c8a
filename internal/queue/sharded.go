// Sharded is the multi-PE variant of the coalescing queue: the vertex space
// is split into K disjoint shards, one per simulated processing engine, and
// each shard keeps the same one-live-event-per-vertex coalescing discipline
// as the single queue — over a dense local index, so each shard's slots are
// one contiguous range of a vertex-count-sized slot array.
//
// Concurrency contract: only the owning worker may call Insert/DrainRound on
// its shard. Events generated by other workers travel through the engine's
// per-pair mail buffers (mirroring the crossbar of internal/noc) and are
// inserted by the owner when it merges its mail at the start of a round. The
// shard itself therefore needs no locks.
package queue

import (
	"fmt"

	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/pad"
)

// Shard is one PE's private coalescing event queue over the vertices it owns.
//
// Layout: the fields above the pad line are set at construction and only read
// afterwards (shared-read is harmless); the fields below it are mutated by
// the owning worker on every insert and drain. The cache-line pads fence the
// mutable region so a line holding one shard's live counters never also holds
// another shard's — K shards are allocated back-to-back, and without the
// fences two workers' per-insert highWater/overflow updates can land on one
// line and ping-pong it (classic false sharing).
type Shard struct {
	cfg      Config
	coalesce Coalesce

	local []uint32 // vertex id -> dense local index (shared, parent-owned)

	_ pad.Line // fence: single-writer region below

	slots []event.Event // this shard's window of the backing slot array
	occ   *occupancy
	drain []event.Event // reusable row-batch scratch, see Coalescing.drain

	coalescingOn bool
	overflow     []event.Event
	highWater    int

	_ pad.Line // fence: nothing after the hot region shares its last line
}

// HighWater returns the peak number of live events the shard has held over
// its lifetime (every phase it served, not just the last).
func (s *Shard) HighWater() int { return s.highWater }

// Insert adds e to the shard, coalescing with any resident event for the same
// target. It reports whether e was merged into an existing slot (the caller
// counts it as coalesced). Only the owning worker may call it.
func (s *Shard) Insert(e event.Event) (coalesced bool) {
	if int(e.Target) >= len(s.local) {
		panic(fmt.Sprintf("queue: shard insert target %d out of range (%d vertices)", e.Target, len(s.local)))
	}
	li := s.local[e.Target]
	if !s.occ.set(int(li)) {
		if s.coalescingOn {
			s.slots[li] = s.coalesce(s.slots[li], e)
			return true
		}
		s.overflow = append(s.overflow, e)
		if n := s.Len(); n > s.highWater {
			s.highWater = n
		}
		return false
	}
	s.slots[li] = e
	if n := s.Len(); n > s.highWater {
		s.highWater = n
	}
	return false
}

// Len returns the number of live events in the shard.
func (s *Shard) Len() int { return s.occ.count + len(s.overflow) }

// Empty reports whether no events are pending in the shard.
func (s *Shard) Empty() bool { return s.Len() == 0 }

// DrainRound emits every currently pending event in ascending local order,
// one RowSize batch at a time, mirroring Coalescing.DrainRound — including
// its sparse forward-only row walk over the occupancy bitmap. Events the
// callback inserts land in later rows of the same round or the next round.
// The overflow buffer (non-coalescing mode) is drained FIFO afterwards.
// Returns the number of events emitted.
func (s *Shard) DrainRound(fn func(batch []event.Event)) int {
	emitted := 0
	batch := s.drain[:0]
	for row := s.occ.nextRow(0); row >= 0; row = s.occ.nextRow(row + 1) {
		batch = batch[:0]
		s.occ.drainRow(row, func(slot int) {
			batch = append(batch, s.slots[slot])
		})
		if len(batch) > 0 {
			emitted += len(batch)
			fn(batch)
		}
	}
	pend := s.overflow
	s.overflow = nil
	for lo := 0; lo < len(pend); lo += s.cfg.RowSize {
		hi := lo + s.cfg.RowSize
		if hi > len(pend) {
			hi = len(pend)
		}
		emitted += hi - lo
		fn(pend[lo:hi])
	}
	return emitted
}

// Sharded bundles the K shards of a parallel engine together with the
// ownership and dense-index maps they share.
type Sharded struct {
	owner  []int32
	local  []uint32
	shards []*Shard
}

// Sharded builds K per-PE shards from an ownership map (vertex -> shard,
// every entry in [0, k)), with q's row size, coalesce function and current
// coalescing mode. The shards own no slot memory: shard i's slots are the
// range [off_i, off_i+size_i) of q's own slot array, indexed in dense-local
// order. The parallel engine keeps one such Sharded for its lifetime, so a
// phase costs no O(V) allocation.
//
// The aliasing contract: q and the shards never hold live events at the same
// time. q is empty while the shards are in use (the engine takes its events
// out with TakeAll before the first shard insert) and the shards are empty
// whenever q is used again (a parallel phase ends at quiescence). Slot
// contents left behind by either side are stale but harmless, because an
// occupancy bit, not the slot, says whether a slot is live; every insert into
// an unoccupied slot overwrites it.
func (q *Coalescing) Sharded(k int, owner []int32) *Sharded {
	if len(owner) != q.n {
		panic(fmt.Sprintf("queue: ownership map covers %d vertices, queue has %d slots", len(owner), q.n))
	}
	if k <= 0 {
		panic("queue: sharded queue needs at least one shard")
	}
	q.ensure()
	sizes := make([]int, k)
	local := make([]uint32, len(owner))
	for v, s := range owner {
		if int(s) >= k || s < 0 {
			panic(fmt.Sprintf("queue: vertex %d owned by shard %d of %d", v, s, k))
		}
		local[v] = uint32(sizes[s])
		sizes[s]++
	}
	sq := &Sharded{owner: owner, local: local, shards: make([]*Shard, k)}
	off := 0
	for i, n := range sizes {
		sq.shards[i] = &Shard{
			cfg:          q.cfg,
			coalesce:     q.coalesce,
			local:        local,
			slots:        q.slots[off : off+n : off+n],
			occ:          newOccupancy(n, q.cfg.RowSize),
			drain:        make([]event.Event, 0, q.cfg.RowSize),
			coalescingOn: q.coalescingOn,
		}
		off += n
	}
	return sq
}

// SetCoalescing sets every shard's coalescing mode. Call it only while no
// worker is running (phase setup).
func (sq *Sharded) SetCoalescing(on bool) {
	for _, s := range sq.shards {
		s.coalescingOn = on
	}
}

// Shard returns shard i.
func (sq *Sharded) Shard(i int) *Shard { return sq.shards[i] }

// K returns the shard count.
func (sq *Sharded) K() int { return len(sq.shards) }

// Owner returns the shard owning vertex v.
func (sq *Sharded) Owner(v graph.VertexID) int { return int(sq.owner[v]) }

// Len returns the total number of live events across all shards. Safe only
// when no worker is running (phase setup / teardown).
func (sq *Sharded) Len() int {
	n := 0
	for _, s := range sq.shards {
		n += s.Len()
	}
	return n
}

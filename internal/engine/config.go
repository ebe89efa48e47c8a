// Package engine implements the GraphPulse event-driven accelerator model
// (paper §3.1, §4.1–§4.4): the coalescing-queue compute loop that both the
// static baseline and JetStream's streaming phases execute, plus the
// cycle-approximate timing layer that replays the engine's real access
// streams through the DRAM/cache/NoC models.
package engine

import (
	"jetstream/internal/event"
	"jetstream/internal/mem"
	"jetstream/internal/queue"
)

// Config describes the accelerator, following the paper's Table 1 and §4.
type Config struct {
	// Processors is the number of event processing engines (8).
	Processors int
	// GenStreams is the number of event generation streams per processor (4,
	// for 32 total sharing the crossbar inputs).
	GenStreams int
	// ClockHz converts cycles to time (1 GHz).
	ClockHz float64
	// ApplyCycles is the pipeline occupancy of one vertex update.
	ApplyCycles int
	// RoundOverheadCycles is the scheduler's per-drain-round bookkeeping.
	RoundOverheadCycles int

	// QueueBytes is the on-chip event queue capacity (64 MB eDRAM). With
	// one slot per vertex this bounds the vertices per graph slice; larger
	// JetStream/DAP events shrink that bound (paper §4.2, §6.1).
	QueueBytes int
	// Queue is the bin/row geometry.
	Queue queue.Config

	// VertexBytes is the state footprint per vertex (8; +4 under DAP for
	// the dependency field, §5.2).
	VertexBytes int
	// EdgeBytes is the CSR edge record footprint (destination + weight).
	EdgeBytes int

	// EdgeCacheBytes is the per-processor edge cache (1 KB).
	EdgeCacheBytes int
	// ScratchpadBytes is the per-processor vertex scratchpad (2 KB).
	ScratchpadBytes int

	DRAM mem.DRAMConfig

	// EventMode selects the event payload layout (GraphPulse, JetStream,
	// JetStream+DAP), which sets the on-chip footprint per queue slot.
	EventMode event.Mode

	// Parallelism shards the functional compute phases across this many
	// worker goroutines — one per simulated PE, multiplexed by the Go
	// scheduler onto at most GOMAXPROCS cores. It defaults to Processors
	// (the paper's 8 PEs). Parallel execution engages only with the timing
	// model off: with timing on the engine stays sequential, because the
	// cycle model reconstructs the hardware's parallelism from the
	// deterministic event trace. 1 reproduces the sequential engine bit for
	// bit. At any parallelism the result is a function of the input and the
	// worker count only — bitwise-identical run to run; selective
	// (monotonic) kernels converge to the sequential engine's fixpoint bit
	// for bit, while accumulative kernels agree with it within the
	// epsilon-truncation bound (see core.Tolerance).
	Parallelism int

	// Timing enables the cycle model; with it off the engine is a pure
	// functional executor (tests of algorithmic behaviour run this way).
	Timing bool
	// DetailedTiming selects the per-event pipeline model (contended apply
	// units, generation streams, crossbar ports and coalescer pipelines)
	// instead of the batch-level throughput model. Slower to simulate,
	// resolves port-contention effects. Requires Timing.
	DetailedTiming bool
	// PipelineOverlap runs the timing simulation on a consumer goroutine fed
	// by a bounded FIFO of copied charge records, overlapping the functional
	// compute of row batch k+1 with the cycle simulation of row batch k (see
	// pipeline.go). Pure wall-clock optimization: the simulated cycle counts
	// are bitwise-identical with it on or off. No effect unless Timing is on.
	PipelineOverlap bool
}

// DefaultConfig returns the paper's Table 1 accelerator: 8 processors at
// 1 GHz, 64 MB on-chip queue memory, 4 DDR3 channels.
func DefaultConfig() Config {
	return Config{
		Processors:          8,
		GenStreams:          4,
		ClockHz:             1e9,
		ApplyCycles:         4,
		RoundOverheadCycles: 32,
		QueueBytes:          64 << 20,
		Queue:               queue.DefaultConfig(),
		VertexBytes:         8,
		EdgeBytes:           8,
		EdgeCacheBytes:      1 << 10,
		ScratchpadBytes:     2 << 10,
		DRAM:                mem.DefaultDRAMConfig(),
		EventMode:           event.ModeJetStream,
		Parallelism:         8,
		Timing:              true,
	}
}

// SliceCapacity returns how many vertices fit in the event queue for this
// configuration: one slot per vertex, slot size = event size. Graphs larger
// than this are partitioned (paper §4.7); JetStream's bigger events mean
// fewer vertices per slice than GraphPulse (§6.1: 6 vs 3 slices on Twitter).
func (c Config) SliceCapacity() int {
	return c.QueueBytes / event.Size(c.EventMode)
}

// CyclesToSeconds converts a cycle count at the configured clock.
func (c Config) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / c.ClockHz
}

// Package jetstream is a reproduction of "JetStream: Graph Analytics on
// Streaming Data with Event-Driven Hardware Accelerator" (MICRO 2021): an
// event-driven streaming-graph accelerator model that incrementally
// re-evaluates standing queries (SSSP, SSWP, BFS, Connected Components,
// incremental PageRank, Adsorption) over batches of edge insertions and
// deletions, together with the GraphPulse static baseline and the
// KickStarter/GraphBolt software comparators used in the paper's evaluation.
//
// Quick start:
//
//	g := jetstream.RMAT(jetstream.RMATConfig{Vertices: 10000, Edges: 80000, Seed: 1})
//	sys, _ := jetstream.New(g, jetstream.SSSP(0))
//	init := sys.RunInitial()
//	res, _ := sys.ApplyBatch(jetstream.Batch{
//	    Inserts: []jetstream.Edge{{Src: 3, Dst: 5, Weight: 2}},
//	})
//	fmt.Println(init.Duration, res.Duration, sys.State()[5])
package jetstream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"jetstream/internal/algo"
	"jetstream/internal/core"
	"jetstream/internal/engine"
	"jetstream/internal/graph"
	"jetstream/internal/obs"
	"jetstream/internal/stats"
	"jetstream/internal/stream"
	"jetstream/internal/wal"
	"jetstream/internal/window"
)

// Re-exported substrate types, so downstream code only imports this package.
type (
	// Graph is an immutable CSR graph version with both edge directions
	// indexed.
	Graph = graph.CSR
	// Edge is a directed weighted edge.
	Edge = graph.Edge
	// Batch is one streaming update: edges to insert and delete.
	Batch = graph.Batch
	// Algorithm is a DAIC kernel (Reduce/Propagate/Identity).
	Algorithm = algo.Algorithm
	// Counters is the work/traffic counter set.
	Counters = stats.Counters
	// RMATConfig parameterizes the social-network-style generator.
	RMATConfig = graph.RMATConfig
	// WebCrawlConfig parameterizes the web-crawl-style generator.
	WebCrawlConfig = graph.WebCrawlConfig
	// GridConfig parameterizes the road-network-style generator.
	GridConfig = graph.GridConfig
	// StreamConfig parameterizes the update-batch generator.
	StreamConfig = stream.Config
	// StreamGenerator draws successive valid update batches.
	StreamGenerator = stream.Generator
	// AcceleratorConfig describes the modeled hardware (paper Table 1).
	AcceleratorConfig = engine.Config
	// OptLevel selects the deletion-recovery pruning optimization.
	OptLevel = core.OptLevel
	// IngestPolicy selects how ApplyBatch treats invalid updates.
	IngestPolicy = graph.IngestPolicy
	// BatchError is the typed rejection the Strict ingest policy returns; it
	// lists every invalid update found.
	BatchError = graph.BatchError
	// BatchIssue describes one invalid update within a rejected batch.
	BatchIssue = graph.BatchIssue
	// WatchdogConfig parameterizes the divergence watchdog (see WithWatchdog).
	WatchdogConfig = core.WatchdogConfig
)

// Optimization levels (paper §5).
const (
	OptBase = core.OptBase
	OptVAP  = core.OptVAP
	OptDAP  = core.OptDAP
)

// Ingest policies for invalid updates (see WithIngest).
const (
	// Strict rejects a batch containing any invalid update with a *BatchError
	// and leaves the query state untouched (the default).
	Strict = graph.Strict
	// Repair drops invalid updates, applies the rest, and counts the drops in
	// the stats (UpdatesDropped, BatchesRepaired).
	Repair = graph.Repair
)

// Graph constructors.
var (
	// BuildGraph constructs a CSR over n vertices from an edge list.
	BuildGraph = graph.Build
	// Symmetrize mirrors every edge (required for Connected Components).
	Symmetrize = graph.Symmetrize
	// RMAT generates a power-law social-network-style graph.
	RMAT = graph.RMAT
	// WebCrawl generates a narrow, long-path web-style graph.
	WebCrawl = graph.WebCrawl
	// Grid generates a road-network-style lattice.
	Grid = graph.Grid
	// ErdosRenyi generates a uniform random graph.
	ErdosRenyi = graph.ErdosRenyi
	// ReadEdgeList parses a "src dst [weight]" text edge list.
	ReadEdgeList = graph.ReadEdgeList
	// WriteEdgeList serializes a graph in the same format.
	WriteEdgeList = graph.WriteEdgeList
	// NewStream returns a deterministic update-batch generator.
	NewStream = stream.NewGenerator
)

// Algorithm constructors for the six evaluated kernels.
func SSSP(root uint32) Algorithm { return algo.NewSSSP(root) }
func SSWP(root uint32) Algorithm { return algo.NewSSWP(root) }
func BFS(root uint32) Algorithm  { return algo.NewBFS(root) }
func CC() Algorithm              { return algo.NewCC() }

// WCC returns the windowed Connected Components kernel: identical DAIC
// functions to CC, validated against a union-find rebuild-on-expiry oracle so
// components split correctly when a sliding window ages out bridging edges.
// Like CC it requires a symmetric graph.
func WCC() Algorithm { return algo.NewWCC() }

// PageRank returns the incremental PageRank kernel; eps <= 0 selects the
// default convergence threshold.
func PageRank(eps float64) Algorithm { return algo.NewPageRank(eps) }

// Adsorption returns the Adsorption kernel; eps <= 0 selects the default.
func Adsorption(eps float64) Algorithm { return algo.NewAdsorption(eps) }

// AlgorithmSpec names a kernel and its parameters. Fields irrelevant to the
// kernel are ignored (Root for cc/pagerank/adsorption, Eps for the selective
// kernels), and new kernel parameters become new fields rather than new
// positional arguments. The spec is the wire form of an algorithm: it
// marshals to JSON, and unmarshaling validates the name eagerly (see
// UnmarshalJSON), so a service can reject a bad tenant declaration before
// building anything.
type AlgorithmSpec struct {
	// Name is one of "sssp", "sswp", "bfs", "cc", "wcc", "pagerank",
	// "adsorption".
	Name string `json:"name"`
	// Root is the query root for sssp/sswp/bfs.
	Root uint32 `json:"root,omitempty"`
	// Eps is the convergence threshold for pagerank/adsorption; <= 0 selects
	// the kernel's default.
	Eps float64 `json:"eps,omitempty"`
}

// ErrUnknownAlgorithm is wrapped by NewAlgorithm and AlgorithmSpec
// unmarshaling when the spec names no known kernel. Match it with errors.Is.
var ErrUnknownAlgorithm = algo.ErrUnknown

// AlgorithmNames lists the kernel names a declarative AlgorithmSpec may use,
// in a stable order.
func AlgorithmNames() []string { return algo.SpecNames() }

// UnmarshalJSON decodes a spec strictly: unknown JSON fields are rejected (a
// misspelled parameter must not silently disappear), and an algorithm name
// outside AlgorithmNames fails with an error wrapping ErrUnknownAlgorithm.
func (s *AlgorithmSpec) UnmarshalJSON(data []byte) error {
	type plain AlgorithmSpec
	var p plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("jetstream: algorithm spec: %w", err)
	}
	if !algo.ValidSpecName(p.Name) {
		return fmt.Errorf("jetstream: algorithm spec: %w %q (valid: %s)",
			ErrUnknownAlgorithm, p.Name, strings.Join(algo.SpecNames(), ", "))
	}
	*s = AlgorithmSpec(p)
	return nil
}

// NewAlgorithm resolves spec to a kernel.
func NewAlgorithm(spec AlgorithmSpec) (Algorithm, error) {
	a, err := algo.New(spec.Name, spec.Root, spec.Eps)
	if err != nil {
		return nil, fmt.Errorf("jetstream: %w", err)
	}
	return a, nil
}

// Option configures a System. Options compose in any order.
type Option func(*options)

type options struct {
	opt       OptLevel
	slices    int
	timing    bool
	detailed  bool
	pipeline  bool
	parallel  int
	accel     *engine.Config
	ingest    IngestPolicy
	watchdog  WatchdogConfig
	observer  Observer
	rebuild   bool
	inlineDeg int
	walDir    string
	walOpts   wal.Options
	window    int

	// err carries a deferred construction failure: options built from wire
	// data (Config.Options) cannot return an error themselves, so they record
	// it here and New rejects the whole construction under ErrConfigConflict.
	err error
}

// newOptions returns the library defaults New starts from; Config and its
// round-trip tests rely on this being the single source of default truth.
func newOptions() *options { return &options{opt: OptDAP, timing: true} }

// fail records a deferred option error (first error wins).
func (op *options) fail(err error) {
	if op.err == nil {
		op.err = err
	}
}

// WithOpt selects the deletion-recovery optimization (default OptDAP).
func WithOpt(o OptLevel) Option {
	return func(op *options) { op.opt = o }
}

// WithSlices partitions the graph into k slices (for graphs exceeding the
// on-chip queue capacity).
func WithSlices(k int) Option { return func(op *options) { op.slices = k } }

// WithTiming toggles the cycle-accurate timing model (default on). With it
// off the system is a fast functional streaming-graph engine.
func WithTiming(on bool) Option { return func(op *options) { op.timing = on } }

// WithDetailedTiming selects the per-event pipeline timing model (contended
// apply units, generation streams, crossbar ports and coalescer pipelines)
// instead of the default batch-level throughput model. Slower to simulate;
// resolves port-contention hot spots.
func WithDetailedTiming() Option {
	return func(op *options) { op.detailed = true }
}

// WithPipelineOverlap overlaps the functional compute with the cycle
// simulation when the timing model is on: the engine hands each row batch's
// charge records to a consumer goroutine over a bounded two-slot FIFO and
// keeps computing while the simulator drains. A pure wall-clock optimization
// — cycle counts and all statistics are bitwise-identical with it on or off,
// and it is a documented no-op when timing is off (including with
// WithTiming(false) or parallel functional execution).
func WithPipelineOverlap(on bool) Option {
	return func(op *options) { op.pipeline = on }
}

// WithInlineDegree tunes the degree-adaptive adjacency layout of the
// incremental host path: vertices with at most n neighbors in a direction are
// stored in per-vertex cache-line records instead of the shared slack slab,
// so the common low-degree lookup costs one line fill and zero pointer
// chases. n = 0 keeps the library default (4), n in [1, 4] sets the
// threshold, n = -1 disables the inline layout entirely (uniform slab). The
// logical graph and query results are identical at every setting. Ignored
// under WithGraphRebuild.
func WithInlineDegree(n int) Option {
	return func(op *options) {
		if n < -1 || n > 4 {
			op.fail(fmt.Errorf("WithInlineDegree(%d): threshold must be -1 (disable), 0 (default), or 1..4", n))
			return
		}
		op.inlineDeg = n
	}
}

// WithParallelism shards the functional compute phases across p worker
// goroutines, one per simulated PE (see AcceleratorConfig.Parallelism). The
// default is the modeled PE count (8). p = 1 reproduces the sequential engine
// bit for bit; higher parallelism converges to the identical fixpoint for the
// monotonic kernels (SSSP/SSWP/BFS/CC) and agrees within the epsilon bound
// for the accumulative ones (PageRank/Adsorption). At every p the result is
// bitwise-identical run to run.
//
// Parallel execution requires the timing model off and slicing off: the
// timing model reconstructs hardware parallelism from the deterministic
// sequential trace, and slicing processes one slice at a time by design.
// Combining WithParallelism(p > 1) with timing (the default — pass
// WithTiming(false)) or WithSlices(k > 1) makes New fail with
// ErrConfigConflict; earlier versions silently fell back to sequential.
func WithParallelism(p int) Option {
	return func(op *options) { op.parallel = p }
}

// WithAccelerator overrides the hardware configuration (the event mode and
// vertex footprint still follow the optimization level).
func WithAccelerator(cfg AcceleratorConfig) Option {
	return func(op *options) { op.accel = &cfg }
}

// WithIngest selects the policy for batches containing invalid updates
// (out-of-range endpoints, NaN/Inf/non-positive weights, duplicate pairs,
// deletes of absent edges, inserts of present edges). The default is Strict.
func WithIngest(p IngestPolicy) Option {
	return func(op *options) { op.ingest = p }
}

// WithGraphRebuild applies every batch by rebuilding the full CSR (the
// paper's simplest host model: write a new CSR, swap the pointer) instead of
// the default incremental slack-based mutation that touches only the
// adjacencies a batch changes. Query results are identical either way; the
// switch exists to measure the host-side cost difference and as the
// reference side of differential tests.
func WithGraphRebuild() Option {
	return func(op *options) { op.rebuild = true }
}

// WithWAL attaches a durable write-ahead delta log in dir with the default
// per-batch fsync policy: every applied batch's edge delta is journaled (and
// synced) before the engine mutates any state, and a baseline snapshot is
// written to dir on the first batch, so after a crash RecoverFromDir rebuilds
// exactly the durable prefix of the stream. The directory must not already
// hold a snapshot — resuming an existing WAL directory goes through
// RecoverFromDir instead.
func WithWAL(dir string) Option { return func(op *options) { op.walDir = dir } }

// WithWALOptions is WithWAL with an explicit sync policy, sync interval, or
// filesystem override (see WALOptions).
func WithWALOptions(dir string, o WALOptions) Option {
	return func(op *options) { op.walDir = dir; op.walOpts = o }
}

// WithWindow bounds every edge's lifetime to ttlBatches batches — the
// infinite-window streaming model where the graph holds exactly the edges
// inserted in the last ttlBatches batches (the initial graph counts as epoch
// 0 and ages out like any other). On each ApplyBatch the system synthesizes
// the aging-based deletion batch for the edges whose epoch falls out of the
// window, merges it with the user's (sanitized) updates, and applies the
// combined delta through the ordinary slack-based CSR path, so expiry runs
// through the same deletion-recovery machinery before the functional phase —
// its cost is O(expired edges), never O(V+E). A user delete of an expiring
// edge wins (no duplicate); a same-batch delete+insert of a pair refreshes
// its age. Expired counts surface via Result.Expired and the
// jetstream_window_expired_edges_total counter. ttlBatches must be at least
// 1; the window survives Checkpoint/Restore (format v5) and WAL recovery.
func WithWindow(ttlBatches int) Option {
	return func(op *options) { op.window = ttlBatches }
}

// WithWatchdog enables the divergence watchdog: every cfg.Every batches the
// streaming state is verified against a from-scratch solve (sampled down to
// cfg.Sample vertices when set), and a deviation beyond cfg.Epsilon triggers
// an automatic cold-start recompute — the paper's GraphPulse baseline as the
// recovery of last resort. Disabled by default.
func WithWatchdog(cfg WatchdogConfig) Option {
	return func(op *options) { op.watchdog = cfg }
}

// Result summarizes one operation (initial run or one batch).
type Result struct {
	// Cycles consumed by this operation at the accelerator clock.
	Cycles uint64
	// Duration is Cycles at the configured clock.
	Duration time.Duration
	// Stats holds the work counters for this operation only.
	Stats Counters

	// Repaired counts the invalid updates dropped by the Repair ingest policy
	// for this batch. It always equals Stats.UpdatesDropped for the same
	// batch: drop accounting is per batch and only for batches that applied.
	Repaired uint64
	// Issues details each update the Repair policy dropped from this batch,
	// in batch order — the deterministic per-batch repair report.
	Issues []BatchIssue
	// Expired counts the edges the sliding window aged out in this batch
	// (always 0 without WithWindow). The synthesized deletions are applied
	// together with the batch's own updates, before the functional phase.
	Expired uint64
	// Checked reports whether the divergence watchdog ran after this batch.
	Checked bool
	// Divergence is the deviation the watchdog measured (when Checked).
	Divergence float64
	// FellBack reports whether the watchdog triggered a cold-start recompute.
	FellBack bool
}

// ErrConfigConflict is returned by New when requested options cannot be
// honored together (e.g. WithParallelism(>1) with the timing model or
// slicing). Match it with errors.Is; the wrapped message names the options.
var ErrConfigConflict = errors.New("jetstream: conflicting options")

// System is a standing query over a streaming graph: the JetStream engine,
// its current graph version, and its converged vertex states.
//
// Concurrency contract: a System is single-writer. ApplyBatch, RunInitial,
// Checkpoint, Compact, Sync, Restore and Close must not overlap — callers
// multiplexing a System across goroutines (a service hosting one System per
// tenant, say) must serialize these per System with their own lock. Read-only
// accessors (State, Graph, Metrics, Batches, ...) are safe only between such
// operations. As a cheap defense against silent state corruption, the
// mutating entry points carry an atomic in-use guard: an overlapping call
// fails fast with an error wrapping ErrConcurrentApply instead of racing.
type System struct {
	js      *core.JetStream
	alg     Algorithm
	st      *stats.Counters
	cfg     core.Config
	ingest  IngestPolicy
	wd      WatchdogConfig
	prev    stats.Counters
	batches uint64
	init    bool

	// Durability: the write-ahead delta log (nil without WithWAL), its
	// directory and options, and whether the baseline snapshot covering the
	// log's floor is already on disk.
	wal      *wal.Log
	walDir   string
	walOpts  wal.Options
	snapDone bool

	// Sliding window: per-edge insertion ages (nil without WithWindow) and
	// the cumulative expired-edge counter.
	win      *window.Ring
	expiredC *obs.Counter

	// Observability: every System owns a metrics registry (Metrics,
	// MetricsHandler work without any option); tr is the WithObserver
	// callback, obs.Nop otherwise.
	reg      *obs.Registry
	tr       obs.Tracer
	trSeq    uint64
	latency  *obs.Histogram
	batchesC *obs.Counter

	// inUse is the concurrency tripwire: set for the duration of every
	// mutating entry point so an overlapping call from another goroutine
	// fails with ErrConcurrentApply instead of corrupting engine state.
	inUse atomic.Bool
}

// ErrConcurrentApply is returned when a mutating System operation (ApplyBatch,
// Checkpoint, Compact, Sync, Close, RunInitial) overlaps another one on the
// same System. It signals a caller-side locking bug: a System is single-writer
// and must be serialized per instance. Match it with errors.Is.
var ErrConcurrentApply = errors.New("jetstream: System used concurrently")

// acquire claims the single-writer guard for op, failing fast on overlap.
func (s *System) acquire(op string) error {
	if !s.inUse.CompareAndSwap(false, true) {
		return fmt.Errorf("%w: %s overlapped another operation; serialize access to each System", ErrConcurrentApply, op)
	}
	return nil
}

// release returns the single-writer guard.
func (s *System) release() { s.inUse.Store(false) }

// New builds a System for query a over initial graph g.
func New(g *Graph, a Algorithm, opts ...Option) (*System, error) {
	if algo.NeedsSymmetric(a) && !g.Symmetric() {
		return nil, fmt.Errorf("jetstream: %s requires a symmetric graph; use Symmetrize", a.Name())
	}
	op := newOptions()
	for _, o := range opts {
		o(op)
	}
	if op.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfigConflict, op.err)
	}
	if op.parallel > 1 {
		if op.timing {
			return nil, fmt.Errorf("%w: WithParallelism(%d) requires the timing model off — add WithTiming(false)", ErrConfigConflict, op.parallel)
		}
		if op.slices > 1 {
			return nil, fmt.Errorf("%w: WithParallelism(%d) cannot be combined with WithSlices(%d)", ErrConfigConflict, op.parallel, op.slices)
		}
	}
	cfg := core.ConfigWithOpt(op.opt)
	if op.accel != nil {
		mode, vb := cfg.Engine.EventMode, cfg.Engine.VertexBytes
		cfg.Engine = *op.accel
		cfg.Engine.EventMode, cfg.Engine.VertexBytes = mode, vb
	}
	cfg.Slices = op.slices
	cfg.RebuildGraph = op.rebuild
	cfg.InlineDegree = op.inlineDeg
	cfg.Engine.Timing = op.timing
	cfg.Engine.DetailedTiming = op.detailed
	cfg.Engine.PipelineOverlap = op.pipeline
	if op.parallel > 0 {
		cfg.Engine.Parallelism = op.parallel
	}
	st := &stats.Counters{}
	s := &System{
		js:     core.New(g, a, cfg, st),
		alg:    a,
		st:     st,
		cfg:    cfg,
		ingest: op.ingest,
		wd:     op.watchdog,
		reg:    obs.NewRegistry(),
		tr:     obs.Nop,
	}
	if op.observer != nil {
		s.tr = op.observer
	}
	s.latency = s.reg.Histogram("jetstream_batch_latency_ns")
	s.batchesC = s.reg.Counter("jetstream_batches_total")
	s.js.Instrument(s.reg, s.tr)
	if op.window != 0 {
		win, err := window.New(op.window)
		if err != nil {
			return nil, fmt.Errorf("%w: WithWindow(%d): ttl must be at least 1 batch", ErrConfigConflict, op.window)
		}
		win.Seed(0, g.Edges())
		s.win = win
		s.expiredC = s.reg.Counter("jetstream_window_expired_edges_total")
	}
	if op.walDir != "" {
		if err := s.attachFreshWAL(op.walDir, op.walOpts); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// attachFreshWAL opens a write-ahead log for a brand-new System. The
// directory must hold no prior durable history: an existing snapshot means
// the stream should resume through RecoverFromDir, and journaled records
// without a snapshot mean the snapshot half of the pair was lost.
func (s *System) attachFreshWAL(dir string, opts wal.Options) error {
	fs := opts.FS
	if fs == nil {
		fs = wal.OSFS{}
	}
	if _, err := fs.ReadFile(filepath.Join(dir, SnapshotName)); err == nil {
		return fmt.Errorf("jetstream: WAL directory %s already holds a snapshot; resume it with RecoverFromDir or point WithWAL at a fresh directory", dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("jetstream: WAL directory %s: %w", dir, err)
	}
	l, err := wal.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("jetstream: %w", err)
	}
	if l.LastSeq() > 0 {
		_ = l.Close() // refusing anyway; the open error is authoritative
		return fmt.Errorf("jetstream: WAL directory %s holds journaled batches but no snapshot to replay them onto; recover the snapshot or start a fresh directory", dir)
	}
	l.SetFloor(0)
	l.Instrument(s.reg)
	s.wal, s.walDir, s.walOpts = l, dir, opts
	return nil
}

// delta snapshots the counters consumed since the previous snapshot. Cycles
// is read before the struct copy: with pipeline overlap on, the cycle read
// joins the timing consumer, and the copy must not race with it.
func (s *System) delta() Result {
	cy := s.js.Cycles()
	cur := *s.st
	cur.Cycles = cy
	d := cur
	d.Sub(&s.prev)
	s.prev = cur
	secs := s.cfg.Engine.CyclesToSeconds(d.Cycles)
	return Result{
		Cycles:   d.Cycles,
		Duration: time.Duration(secs * float64(time.Second)),
		Stats:    d,
	}
}

// RunInitial performs the initial static evaluation (cold start). It must be
// called once before streaming batches.
func (s *System) RunInitial() Result {
	s.js.RunInitial()
	s.init = true
	return s.delta()
}

// ApplyBatch incrementally updates the query results for the next graph
// version. Every batch is validated first: under the Strict policy (default)
// an invalid update rejects the whole batch with a *BatchError and the state
// is untouched; under Repair the invalid updates are dropped, counted, and
// the rest applied. With WithWAL configured the sanitized delta is journaled
// durably before the engine mutates any state; a journaling failure rejects
// the batch with the state untouched. ApplyBatch never panics on
// caller-supplied input.
func (s *System) ApplyBatch(b Batch) (Result, error) {
	if err := s.acquire("ApplyBatch"); err != nil {
		return Result{}, err
	}
	defer s.release()
	return s.applyBatch(b, true)
}

// applyBatch is ApplyBatch with the journaling step controllable: recovery
// replays already-journaled batches with journal=false so the log is not
// re-appended with its own contents.
func (s *System) applyBatch(b Batch, journal bool) (Result, error) {
	if !s.init {
		return Result{}, fmt.Errorf("jetstream: call RunInitial before ApplyBatch")
	}
	s.trace(obs.TraceEvent{Kind: obs.KindBatchStart, A: s.batches + 1, B: uint64(b.Size())})
	// Sanitize unconditionally: even a clean batch has its delete weights
	// normalized to the stored edge weight, so a stale weight cannot poison
	// the value-aware recovery.
	clean, issues := s.js.Graph().SanitizeBatch(b)
	if len(issues) > 0 && s.ingest == Strict {
		return Result{}, &BatchError{Issues: issues}
	}
	if journal && s.wal != nil {
		if err := s.journal(clean); err != nil {
			return Result{}, err
		}
	}
	// Sliding window: synthesize the aging-based deletion set for this batch
	// and merge it ahead of the user's updates, so one graph version and one
	// deletion-recovery phase cover both. Only the user batch was journaled —
	// recovery re-derives expiry deterministically by replaying through this
	// same path.
	apply, expired, err := s.expireInto(clean)
	if err != nil {
		return Result{}, err
	}
	if err := s.js.ApplyBatch(apply); err != nil {
		return Result{}, fmt.Errorf("jetstream: apply batch: %w", err)
	}
	if s.win != nil {
		s.win.Record(s.batches+1, clean)
		s.expiredC.Add(expired)
	}
	// Count repairs only after the batch actually applied, so each batch's
	// Stats delta carries exactly its own dropped-update count (a failed
	// apply leaves the global counters untouched).
	if len(issues) > 0 {
		s.st.UpdatesDropped += uint64(len(issues))
		s.st.BatchesRepaired++
	}
	s.batches++
	checked, div, fell := s.js.WatchdogCheck(s.wd, s.batches)
	res := s.delta()
	res.Repaired = uint64(len(issues))
	res.Issues = issues
	res.Expired = expired
	res.Checked, res.Divergence, res.FellBack = checked, div, fell
	s.latency.Observe(uint64(res.Duration.Nanoseconds()))
	s.batchesC.Inc()
	s.trace(obs.TraceEvent{Kind: obs.KindBatchEnd, A: s.batches,
		B: res.Stats.EventsProcessed, F: res.Duration.Seconds()})
	return res, nil
}

// expireInto computes the window's aging-based deletion set for the next
// batch and merges it ahead of the sanitized user batch, returning the batch
// to apply and the expired-edge count. Without a window it returns clean
// unchanged. The expiry deletes carry the stored edge weights (the same
// normalization SanitizeBatch performs for user deletes) so value-aware
// deletion recovery sees the true contributions; they are emitted in
// ascending (src,dst) order, making the merged batch — and therefore the
// resulting graph version and state — deterministic across replays.
func (s *System) expireInto(clean Batch) (Batch, uint64, error) {
	if s.win == nil {
		return clean, 0, nil
	}
	userDel := make(map[window.Key]bool, len(clean.Deletes))
	for _, e := range clean.Deletes {
		userDel[window.Key{Src: e.Src, Dst: e.Dst}] = true
	}
	expired := s.win.Expire(s.batches+1, func(k window.Key) bool { return userDel[k] })
	if len(expired) == 0 {
		return clean, 0, nil
	}
	g := s.js.Graph()
	merged := Batch{
		Deletes: make([]Edge, 0, len(expired)+len(clean.Deletes)),
		Inserts: clean.Inserts,
	}
	for _, k := range expired {
		w, ok := g.HasEdge(k.Src, k.Dst)
		if !ok {
			// The ring only tracks live edges; a miss means the ring and the
			// graph version diverged — state corruption, not caller error.
			return Batch{}, 0, fmt.Errorf("jetstream: window: expiring edge (%d,%d) absent from graph version", k.Src, k.Dst)
		}
		merged.Deletes = append(merged.Deletes, Edge{Src: k.Src, Dst: k.Dst, Weight: w})
	}
	merged.Deletes = append(merged.Deletes, clean.Deletes...)
	return merged, uint64(len(expired)), nil
}

// Window returns the sliding-window TTL in batches, or 0 when no window is
// configured.
func (s *System) Window() int {
	if s.win == nil {
		return 0
	}
	return s.win.TTL()
}

// trace emits a System-level trace event with sequencing filled in.
func (s *System) trace(e obs.TraceEvent) {
	s.trSeq++
	e.Seq = s.trSeq
	e.Worker = -1
	s.tr.Trace(e)
}

// Parallelism reports the effective compute-phase worker count the system was
// configured with.
func (s *System) Parallelism() int { return s.cfg.Engine.Parallelism }

// Graph returns the current graph version.
func (s *System) Graph() *Graph { return s.js.Graph() }

// State returns a copy of the converged per-vertex results. The copy is
// yours: mutating it cannot corrupt the engine between batches.
func (s *System) State() []float64 {
	return append([]float64(nil), s.js.State()...)
}

// StateRef returns the engine's live state slice without copying — the
// zero-copy read path for large graphs. The slice is owned by the engine:
// treat it as read-only and do not retain it across ApplyBatch calls.
func (s *System) StateRef() []float64 { return s.js.State() }

// Batches returns how many batches have been applied since construction (or
// across a checkpoint/restore cycle); the watchdog cadence follows it.
func (s *System) Batches() uint64 { return s.batches }

// TotalStats returns cumulative counters since construction. The cycle read
// comes first: it joins any in-flight pipelined timing work, so the struct
// copy sees settled counters.
func (s *System) TotalStats() Counters {
	cy := s.js.Cycles()
	c := *s.st
	c.Cycles = cy
	return c
}

// Verify recomputes the query from scratch with a conventional solver and
// returns the maximum deviation of the streaming state — a self-check.
func (s *System) Verify() float64 { return s.js.Verify() }

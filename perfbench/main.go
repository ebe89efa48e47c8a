// Command perfbench is the repository benchmark: three closed-loop workloads
// over the jetstream library and the multi-tenant service, each checked
// against a reference, reporting end-to-end metrics (untraced run) or
// per-layer metrics (traced run) as one JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params sizes a run. Work is fixed by --seconds at a nominal rate per
// workload, not by the clock, so two builds compared A/B apply exactly the
// same batches (graph growth, compactions and WAL length stay identical).
type params struct {
	name    string
	seed    int64
	seconds int
	trace   bool
	workdir string // this run's scratch directory, removed at exit
	outdir  string // where a traced run leaves its spans
	// scale multiplies every size; tests run with a small scale.
	scale float64
}

// workload runs one benchmark workload and fills r.
type workload func(p params, r *report) error

var workloads = map[string]workload{
	"rmat-sssp-trickle":       runTrickle,
	"webcrawl-pagerank-timed": runTimed,
	"tenants-window-wal":      runTenants,
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for WALs and traces")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	p := params{name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: dir, outdir: *workdir, scale: 1}
	r := &report{Correct: true, Metrics: map[string]metric{}}
	if err := w(p, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-34s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness failure; the run still prints its metrics.
func (r *report) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: INCORRECT: "+format+"\n", args...)
	r.Correct = false
}

// n scales a size, never below lo.
func (p params) n(base int, lo int) int {
	return max(lo, int(float64(base)*p.scale+0.5))
}

// file names a path inside the run's scratch directory.
func (p params) file(name string) string { return filepath.Join(p.workdir, name) }

// out is the file a traced run writes its spans to.
func (p params) out() string {
	return filepath.Join(p.outdir, fmt.Sprintf("trace-%s-%d.jsonl", p.name, p.seed))
}

// quantile is the nearest-rank q-quantile of xs (xs need not be sorted).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianSeconds is the median of repeated set-up or recovery times.
func medianSeconds(xs []time.Duration) float64 { return quantile(xs, 0.5).Seconds() }

// meter brackets a timed phase: wall clock, process CPU (getrusage, so
// steal time on a shared host is not charged) and bytes allocated.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

// stop returns wall time, CPU time and bytes allocated since start.
func (m meter) stop() (wall, cpu time.Duration, alloc uint64) {
	wall = time.Since(m.wall)
	cpu = cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wall, cpu, ms.TotalAlloc - m.alloc
}

// liveHeapMB forces a collection and returns the live heap. Reading it
// without the GC made identical runs differ by a quarter.
func liveHeapMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// loop holds what every closed loop measures.
type loop struct {
	acks, reads       []time.Duration
	updates, events   uint64
	wall, cpu         time.Duration
	alloc             uint64
	heapMB            float64
	setups, recovers  []time.Duration
	attempted, failed int
}

// endToEnd sets the end-to-end metrics every workload reports.
func (l *loop) endToEnd(r *report) {
	u := float64(l.updates)
	r.set("setup_s", medianSeconds(l.setups), "s")
	r.set("recover_s", medianSeconds(l.recovers), "s")
	r.set("ack_p50_ms", ms(quantile(l.acks, 0.50)), "ms")
	r.set("ack_p90_ms", ms(quantile(l.acks, 0.90)), "ms")
	r.set("read_p50_ms", ms(quantile(l.reads, 0.50)), "ms")
	r.set("updates_per_s", u/l.wall.Seconds(), "1/s")
	r.set("cpu_us_per_update", us(l.cpu)/u, "us")
	r.set("alloc_bytes_per_update", float64(l.alloc)/u, "B")
	r.set("heap_live_mb", l.heapMB, "MB")
	r.set("events_per_update", float64(l.events)/u, "count")
	r.set("events_per_host_s", float64(l.events)/l.wall.Seconds(), "1/s")
	// The far tails are printed but not gated: across seeds their spread
	// can exceed the largest allowed bound (see README).
	fmt.Printf("%d acks: ack_p99_ms %.4g, ack_p99.9_ms %.4g; %d reads: read_p95_ms %.4g; %d set-ups, %d restarts (tails not gated)\n",
		len(l.acks), ms(quantile(l.acks, 0.99)), ms(quantile(l.acks, 0.999)),
		len(l.reads), ms(quantile(l.reads, 0.95)), len(l.setups), len(l.recovers))
	r.Attempted += l.attempted
	r.Failed += l.failed
	if l.failed > 0 {
		r.fail("%d of %d operations failed", l.failed, l.attempted)
	}
}

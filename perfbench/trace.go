package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"jetstream"
)

// recorder stamps the System's observer events with the benchmark's own
// clock. It is installed on every traced System but records only while on,
// so a traced run can interleave traced and untraced blocks of batches and
// measure the tracing overhead on the same graph.
type recorder struct {
	base time.Time
	on   atomic.Bool
	mu   sync.Mutex
	ev   []stamp
}

// stamp is one observer event and when the benchmark saw it.
type stamp struct {
	At time.Duration
	jetstream.TraceEvent
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), ev: make([]stamp, 0, 1<<16)}
}

// Trace implements jetstream.Observer.
func (r *recorder) Trace(e jetstream.TraceEvent) {
	if !r.on.Load() {
		return
	}
	at := time.Since(r.base)
	r.mu.Lock()
	r.ev = append(r.ev, stamp{at, e})
	r.mu.Unlock()
}

// take returns and clears the recorded events.
func (r *recorder) take() []stamp {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := r.ev
	r.ev = make([]stamp, 0, cap(ev))
	return ev
}

// span is one traced ApplyBatch call split into self-times. pre covers
// sanitize, journal, window expiry, graph delta and reset (call start to the
// first scheduler phase); phases are the scheduler phases in order; gaps is
// host work between phases; post runs from the last phase to the return.
type span struct {
	Batch   int             `json:"batch"`
	Start   time.Duration   `json:"start_ns"`
	Total   time.Duration   `json:"total_ns"`
	Pre     time.Duration   `json:"pre_ns"`
	Phases  []time.Duration `json:"phases_ns"`
	Gaps    time.Duration   `json:"gaps_ns"`
	Post    time.Duration   `json:"post_ns"`
	Busy    []time.Duration `json:"worker_busy_ns,omitempty"`
	Skew    float64         `json:"worker_skew,omitempty"`
	Mail    int             `json:"mail"`
	Ordered bool            `json:"ordered"`
}

// split partitions the call [start,end] by the events recorded during it.
// Ordered reports whether the events nest inside the call and the phases do
// not overlap; only then do the self-times sum to the total exactly.
func split(batch int, start, end time.Duration, ev []stamp) span {
	s := span{Batch: batch, Start: start, Total: end - start, Ordered: true}
	cur := start // end of the last accounted interval
	var phaseAt time.Duration
	inPhase := false
	var busy []time.Duration
	for _, e := range ev {
		if e.At < start || e.At > end {
			s.Ordered = false
		}
		switch e.Kind {
		case jetstream.TracePhaseStart:
			if inPhase || e.At < cur {
				s.Ordered = false
			}
			if len(s.Phases) == 0 {
				s.Pre = e.At - cur
			} else {
				s.Gaps += e.At - cur
			}
			phaseAt, inPhase = e.At, true
			busy = busy[:0]
		case jetstream.TracePhaseEnd:
			if !inPhase || e.At < phaseAt {
				s.Ordered = false
			}
			s.Phases = append(s.Phases, e.At-phaseAt)
			cur, inPhase = e.At, false
			if len(busy) > 1 {
				s.Busy = append(s.Busy, busy...)
				s.Skew = max(s.Skew, skew(busy))
			}
		case jetstream.TraceWorkerDrain:
			busy = append(busy, e.At-phaseAt)
		case jetstream.TraceWorkerMail:
			s.Mail++
		}
	}
	if inPhase {
		s.Ordered = false
	}
	if len(s.Phases) == 0 {
		s.Pre = end - start
	} else {
		s.Post = end - cur
	}
	var sum time.Duration
	for _, d := range s.Phases {
		sum += d
	}
	if s.Pre+sum+s.Gaps+s.Post != s.Total {
		s.Ordered = false
	}
	return s
}

// skew is the slowest worker's busy time over the mean.
func skew(busy []time.Duration) float64 {
	var sum, hi time.Duration
	for _, b := range busy {
		sum += b
		hi = max(hi, b)
	}
	if sum == 0 {
		return 1
	}
	return float64(hi) * float64(len(busy)) / float64(sum)
}

// tracedRun is what a traced run collects around one or more Systems.
type tracedRun struct {
	spans            []span
	traced, untraced []time.Duration // ack times with the recorder on and off
	newT, initT      []time.Duration // New and RunInitial per set-up
	deltas           []time.Duration // mirror ApplyDelta times
	sum              jetstream.Counters
	updates, batches uint64
}

// observe files one timed ApplyBatch call that started at t0 and took d.
func (t *tracedRun) observe(rec *recorder, batch int, t0 time.Time, d time.Duration, res jetstream.Result, updates int) {
	if rec.on.Load() {
		end := t0.Sub(rec.base) + d
		t.spans = append(t.spans, split(batch, end-d, end, rec.take()))
		t.traced = append(t.traced, d)
	} else {
		t.untraced = append(t.untraced, d)
	}
	t.sum.Add(&res.Stats)
	t.updates += uint64(updates)
	t.batches++
}

// report sets the system, graph, core, engine and queue metrics; sys is the
// System (or last replica) whose graph and queue are inspected.
func (t *tracedRun) report(r *report, sys *jetstream.System) {
	spanStats(r, t.spans)
	u, bn := float64(max(t.updates, 1)), float64(max(t.batches, 1))
	r.set("obs.trace_overhead_pct", 100*(float64(quantile(t.traced, 0.5))/float64(quantile(t.untraced, 0.5))-1), "%")
	r.set("system.new_s", medianSeconds(t.newT), "s")
	r.set("system.run_initial_s", medianSeconds(t.initT), "s")
	graphStats(r, sys.Graph(), t.deltas)
	r.set("core.reset_per_update", float64(t.sum.VerticesReset)/u, "count")
	r.set("core.deletes_discarded_ratio", ratio(t.sum.DeletesDiscarded, t.sum.DeletesDiscarded+t.sum.VerticesReset), "ratio")
	r.set("core.requests_per_update", float64(t.sum.RequestsIssued)/u, "count")
	r.set("engine.rounds_per_batch", float64(t.sum.Rounds)/bn, "count")
	r.set("queue.coalesce_ratio", ratio(t.sum.EventsCoalesced, t.sum.EventsGenerated), "ratio")
	r.set("queue.highwater", float64(sys.Metrics().QueueHighWater), "count")
}

// spanStats folds traced spans into the system and engine layer metrics.
func spanStats(r *report, spans []span) {
	var pre, post, gaps []time.Duration
	var phases [4][]time.Duration
	var busy []time.Duration
	nPhases, mail, bad := 0, 0, 0
	skews := 0.0
	skewN := 0
	for _, s := range spans {
		if !s.Ordered {
			bad++
		}
		pre = append(pre, s.Pre)
		post = append(post, s.Post)
		gaps = append(gaps, s.Gaps)
		for i, d := range s.Phases {
			if i < len(phases) {
				phases[i] = append(phases[i], d)
			}
		}
		nPhases += len(s.Phases)
		mail += s.Mail
		busy = append(busy, s.Busy...)
		if s.Skew > 0 {
			skews += s.Skew
			skewN++
		}
	}
	n := float64(max(len(spans), 1))
	r.set("trace.batches", float64(len(spans)), "count")
	r.set("trace.unpartitioned_batches", float64(bad), "count")
	if bad > 0 {
		r.fail("%d of %d traced batches do not partition into pre + phases + gaps + post", bad, len(spans))
	}
	r.set("system.pre_phase_us", us(quantile(pre, 0.5)), "us")
	r.set("system.post_phase_us", us(quantile(post, 0.5)), "us")
	r.set("engine.between_phase_us", us(quantile(gaps, 0.5)), "us")
	for i, ds := range phases {
		r.set(fmt.Sprintf("engine.phase_us.%d", i), us(quantile(ds, 0.5)), "us")
	}
	r.set("engine.phases_per_batch", float64(nPhases)/n, "count")
	r.set("engine.mail_per_batch", float64(mail)/n, "count")
	r.set("engine.worker_busy_us", us(quantile(busy, 0.5)), "us")
	if skewN > 0 {
		r.set("engine.worker_skew", skews/float64(skewN), "ratio")
	} else {
		r.set("engine.worker_skew", 1, "ratio")
	}
}

// writeSpans writes a traced run's spans as JSON lines at the end of the run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

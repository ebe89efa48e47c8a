package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"jetstream"
	"jetstream/internal/service"
	"jetstream/internal/window"
)

const (
	tenantCount = 16
	tenantTTL   = 16
	// clients is the number of closed-loop connections (the host's cores).
	clients = 2
	// tenantRoundsPerSecond is the nominal batch rounds per tenant per
	// --seconds. Recovery replays every round, so the timed phase is kept
	// near half of --seconds.
	tenantRoundsPerSecond = 20
	// warmBatches are sent per tenant during set-up: the first runs the
	// lazy initial evaluation and writes the WAL's baseline snapshot, and
	// the window expires the whole seeded initial graph at once by batch
	// TTL. Both are one-time costs kept out of the ack samples.
	warmBatches = tenantTTL + 1
)

// tenantAlgs is the per-tenant kernel rotation.
var tenantAlgs = []jetstream.AlgorithmSpec{{Name: "sssp", Root: 0}, {Name: "bfs", Root: 0}, {Name: "wcc"}}

// tenantInput is one tenant's declaration and pre-drawn stream: batch i is
// sent as bodies[i]; crc[i] is the reference state checksum after batch i
// (kept where a read follows it); final is the reference final state.
type tenantInput struct {
	req     service.CreateRequest
	batches []jetstream.Batch
	bodies  [][]byte
	crc     map[int]string
	final   []float64
}

// drawTenant declares tenant i and pre-draws its stream against a library
// reference with the tenant's configuration minus the WAL.
func drawTenant(p params, i, rounds int) (tenantInput, error) {
	spec := tenantAlgs[i%len(tenantAlgs)]
	sym := spec.Name == "wcc"
	t := tenantInput{
		req: service.CreateRequest{
			Name: fmt.Sprintf("t%02d", i),
			Graph: service.GraphSpec{Gen: "rmat", Vertices: p.n(8192, 256), Edges: p.n(65536, 2048),
				Seed: p.seed*1009 + int64(i), Symmetrize: sym},
			Algorithm: spec,
			Config:    jetstream.Config{Parallelism: 1, WindowTTL: tenantTTL, WALDir: "wal", WALSync: "batch"},
		},
		crc: map[int]string{},
	}
	g, err := t.req.Graph.Build()
	if err != nil {
		return t, err
	}
	alg, err := jetstream.NewAlgorithm(spec)
	if err != nil {
		return t, err
	}
	refCfg := t.req.Config
	refCfg.WALDir, refCfg.WALSync = "", ""
	ref, err := jetstream.New(g, alg, refCfg.Options()...)
	if err != nil {
		return t, fmt.Errorf("reference %s: %w", t.req.Name, err)
	}
	ref.RunInitial()
	gen := jetstream.NewStream(jetstream.StreamConfig{BatchSize: 256, InsertFrac: 0.7, Symmetric: sym, Seed: p.seed*7919 + int64(i)})
	for b := 0; b < warmBatches+rounds; b++ {
		batch := gen.Next(ref.Graph())
		if _, err := ref.ApplyBatch(batch); err != nil {
			return t, fmt.Errorf("reference %s batch %d: %w", t.req.Name, b, err)
		}
		wb := service.WireBatch{}
		for _, e := range batch.Inserts {
			wb.Inserts = append(wb.Inserts, service.WireEdge{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
		}
		for _, e := range batch.Deletes {
			wb.Deletes = append(wb.Deletes, service.WireEdge{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
		}
		body, err := json.Marshal(wb)
		if err != nil {
			return t, err
		}
		t.batches = append(t.batches, batch)
		t.bodies = append(t.bodies, body)
		if b%readEvery == 0 {
			_, t.crc[b] = service.EncodeState(ref.StateRef())
		}
	}
	t.final = ref.State()
	return t, nil
}

// server is one Service on loopback.
type server struct {
	svc  *service.Service
	http *http.Server
	url  string
	done chan struct{}
	hand *timedHandler
}

// timedHandler times the server side of each batch request (traced run).
type timedHandler struct {
	h     http.Handler
	mu    sync.Mutex
	batch []time.Duration
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	if strings.HasSuffix(r.URL.Path, "/batch") {
		d := time.Since(t0)
		t.mu.Lock()
		t.batch = append(t.batch, d)
		t.mu.Unlock()
	}
}

func startServer(svc *service.Service, timed bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{svc: svc, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	var h http.Handler = svc.Handler()
	if timed {
		s.hand = &timedHandler{h: h}
		h = s.hand
	}
	s.http = &http.Server{Handler: h}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the listener and connections, waits for the serve loop, and
// shuts the Service down (WAL tenants fsync their log tails).
func (s *server) stop() error {
	err := s.http.Shutdown(context.Background())
	<-s.done
	if serr := s.svc.Shutdown(); err == nil {
		err = serr
	}
	return err
}

// client is one closed-loop connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON answer into out. It returns
// the latency up to the last byte of the answer (decoding is not timed) and
// the answer's length.
func (c *client) do(method, path string, body []byte, out any) (time.Duration, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	blob, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return d, 0, err
	}
	if resp.StatusCode/100 != 2 {
		return d, len(blob), fmt.Errorf("%s %s: %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			return d, len(blob), fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return d, len(blob), nil
}

// state fetches and CRC-checks a tenant's state.
func (c *client) state(name string) ([]float64, service.StateResponse, time.Duration, int, error) {
	var st service.StateResponse
	d, n, err := c.do("GET", "/v1/tenants/"+name+"/state", nil, &st)
	if err != nil {
		return nil, st, d, n, err
	}
	vals, err := service.DecodeState(st.State, st.CRC64)
	return vals, st, d, n, err
}

// setupService creates every tenant over HTTP and sends each its warm-up
// batches, returning the serving instance.
func setupService(dir string, ins []tenantInput, timed bool) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(service.New(service.Options{DataDir: dir}), timed)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(srv.url)
	defer c.close()
	for _, in := range ins {
		body, err := json.Marshal(in.req)
		if err != nil {
			return srv, 0, err
		}
		if _, _, err := c.do("POST", "/v1/tenants", body, nil); err != nil {
			return srv, 0, err
		}
		for b := range warmBatches {
			if _, _, err := c.do("POST", "/v1/tenants/"+in.req.Name+"/batch", in.bodies[b], nil); err != nil {
				return srv, 0, err
			}
		}
	}
	return srv, time.Since(t0), nil
}

// clientResult is what one closed-loop connection measured.
type clientResult struct {
	acks, reads               []time.Duration
	updates, events, expired  uint64
	attempted, failed, states int
	stateBytes                int
	mismatch                  []string
}

func (cr *clientResult) add(x clientResult) {
	cr.acks = append(cr.acks, x.acks...)
	cr.reads = append(cr.reads, x.reads...)
	cr.updates += x.updates
	cr.events += x.events
	cr.expired += x.expired
	cr.attempted += x.attempted
	cr.failed += x.failed
	cr.states += x.states
	cr.stateBytes += x.stateBytes
	cr.mismatch = append(cr.mismatch, x.mismatch...)
}

// drive runs one connection over its tenants, round-robin, for rounds
// batches each, with a state read every readEvery batches.
func drive(url string, ins []*tenantInput, rounds int) clientResult {
	c := newClient(url)
	defer c.close()
	var cr clientResult
	for b := warmBatches; b < warmBatches+rounds; b++ {
		for _, in := range ins {
			var resp service.BatchResponse
			d, _, err := c.do("POST", "/v1/tenants/"+in.req.Name+"/batch", in.bodies[b], &resp)
			cr.attempted++
			if err != nil {
				cr.failed++
				cr.mismatch = append(cr.mismatch, fmt.Sprintf("%s batch %d: %v", in.req.Name, b, err))
				continue
			}
			cr.acks = append(cr.acks, d)
			cr.updates += uint64(in.batches[b].Size())
			cr.events += resp.Events
			cr.expired += resp.Expired
			if b%readEvery != 0 {
				continue
			}
			_, st, d, n, err := c.state(in.req.Name)
			cr.attempted++
			if err != nil {
				cr.failed++
				cr.mismatch = append(cr.mismatch, fmt.Sprintf("%s read after %d: %v", in.req.Name, b, err))
				continue
			}
			cr.reads = append(cr.reads, d)
			cr.states++
			cr.stateBytes += n
			if st.CRC64 != in.crc[b] || st.Batches != uint64(b+1) {
				cr.mismatch = append(cr.mismatch, fmt.Sprintf("%s read after %d: state %s at %d batches, reference %s", in.req.Name, b, st.CRC64, st.Batches, in.crc[b]))
			}
		}
	}
	return cr
}

// checkStates compares every tenant's served state with its reference.
func checkStates(r *report, url, when string, ins []tenantInput) {
	c := newClient(url)
	defer c.close()
	for _, in := range ins {
		got, _, _, _, err := c.state(in.req.Name)
		if err != nil {
			r.fail("%s %s: %v", when, in.req.Name, err)
			continue
		}
		if !bitwiseEqual(got, in.final) {
			r.fail("%s %s: state differs from the reference", when, in.req.Name)
		}
	}
}

// runTenants: the durable multi-tenant service on loopback, where graph
// delta, JSON, WAL journaling and window expiry outweigh the engine.
func runTenants(p params, r *report) error {
	rounds := p.n(tenantRoundsPerSecond*p.seconds, 2*traceBlock)
	ins := make([]tenantInput, p.n(tenantCount, 3))
	for i := range ins {
		in, err := drawTenant(p, i, rounds)
		if err != nil {
			return err
		}
		ins[i] = in
	}

	var l loop
	var srv *server
	for rep := range setupReps {
		dir := p.file(fmt.Sprintf("svc%d", rep))
		runtime.GC()
		s, d, err := setupService(dir, ins, p.trace)
		if err != nil {
			if s != nil {
				_ = s.stop()
			}
			return fmt.Errorf("setup: %w", err)
		}
		l.setups = append(l.setups, d)
		if rep < setupReps-1 {
			if err := s.stop(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		srv = s
	}
	dir := p.file(fmt.Sprintf("svc%d", setupReps-1))

	var before *scrape
	if p.trace {
		var err error
		if before, err = scrapeAll(srv.url, ins); err != nil {
			_ = srv.stop()
			return err
		}
	}
	owned := make([][]*tenantInput, clients)
	for i := range ins {
		owned[i%clients] = append(owned[i%clients], &ins[i])
	}
	results := make([]clientResult, clients)
	m := startMeter()
	var wg sync.WaitGroup
	for c := range owned {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = drive(srv.url, owned[c], rounds)
		}(c)
	}
	wg.Wait()
	l.wall, l.cpu, l.alloc = m.stop()

	var cr clientResult
	for _, x := range results {
		cr.add(x)
	}
	for _, msg := range cr.mismatch {
		r.fail("%s", msg)
	}
	l.acks, l.reads = cr.acks, cr.reads
	l.updates, l.events = cr.updates, cr.events
	l.attempted, l.failed = cr.attempted, cr.failed

	var after *scrape
	if p.trace {
		var err error
		if after, err = scrapeAll(srv.url, ins); err != nil {
			_ = srv.stop()
			return err
		}
	}
	if !p.trace {
		for i := range ins {
			ins[i].bodies, ins[i].batches = nil, nil
		}
	}
	l.heapMB = liveHeapMB()
	checkStates(r, srv.url, "before shutdown", ins)

	// Restart: shut down, then recover every tenant from its snapshot and
	// WAL into a new Service on the same data directory.
	if err := srv.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	runtime.GC()
	t0 := time.Now()
	svc := service.New(service.Options{DataDir: dir})
	n, err := svc.Recover()
	l.recovers = append(l.recovers, time.Since(t0))
	if err != nil {
		_ = svc.Shutdown()
		return fmt.Errorf("recover: %w", err)
	}
	if n != len(ins) {
		r.fail("recovered %d of %d tenants", n, len(ins))
	}
	srv2, err := startServer(svc, false)
	if err != nil {
		_ = svc.Shutdown()
		return err
	}
	checkStates(r, srv2.url, "after recover", ins)
	if err := srv2.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}

	if !p.trace {
		l.endToEnd(r)
		return nil
	}
	r.Attempted, r.Failed = l.attempted, l.failed
	serviceLayers(r, before, after, cr, l.acks, srv.hand.batch[warmBatches*len(ins):])
	return replicas(p, r, ins)
}

// serviceLayers reports the WAL, window and service layers from the diffed
// registries, the batch responses and the server-side handler times.
func serviceLayers(r *report, before, after *scrape, cr clientResult, acks, handler []time.Duration) {
	batches := float64(len(acks))
	u := float64(cr.updates)
	walBytes := after.sum("jetstream_wal_append_bytes_total") - before.sum("jetstream_wal_append_bytes_total")
	r.set("wal.bytes_per_update", walBytes/u, "B")
	r.set("wal.syncs_per_batch", (after.sum("jetstream_wal_syncs_total")-before.sum("jetstream_wal_syncs_total"))/batches, "count")
	syncHist := after.hist("jetstream_wal_sync_latency_ns").minus(before.hist("jetstream_wal_sync_latency_ns"))
	r.set("wal.sync_us_p50", syncHist.quantile(0.50)/1e3, "us")
	r.set("wal.sync_us_p99", syncHist.quantile(0.99)/1e3, "us")
	expired := after.sum("jetstream_window_expired_edges_total") - before.sum("jetstream_window_expired_edges_total")
	if uint64(expired) != cr.expired {
		r.fail("window expiry counter moved by %v, batch responses report %d", expired, cr.expired)
	}
	r.set("window.expired_per_batch", expired/batches, "count")
	ingest := after.hist("jetstreamd_ingest_latency_ns").minus(before.hist("jetstreamd_ingest_latency_ns"))
	r.set("service.ingest_us_p50", ingest.quantile(0.50)/1e3, "us")
	r.set("service.ingest_us_p99", ingest.quantile(0.99)/1e3, "us")
	h := quantile(handler, 0.5)
	r.set("service.handler_us_p50", us(h), "us")
	r.set("service.http_us_p50", us(quantile(acks, 0.5)-h), "us")
	r.set("service.throttled", after.sum("jetstreamd_throttled_total")-before.sum("jetstreamd_throttled_total"), "count")
	r.set("service.state_bytes", float64(cr.stateBytes)/float64(max(cr.states, 1)), "B")
}

// replicas runs the first tenant of each kernel again as a library System
// with the tenant's exact configuration (WAL and window included) and an
// observer, which the service's data-only tenant declarations cannot carry.
// It yields the system, graph, core, engine and queue layers of this
// workload, and checks each replica against its reference.
func replicas(p params, r *report, ins []tenantInput) error {
	rec := newRecorder()
	var tr tracedRun
	var firstT []time.Duration
	var last *jetstream.System
	defer func() {
		if last != nil {
			_ = last.Close()
		}
	}()
	for i := range min(len(tenantAlgs), len(ins)) {
		in := &ins[i]
		g, err := in.req.Graph.Build()
		if err != nil {
			return err
		}
		alg, err := jetstream.NewAlgorithm(in.req.Algorithm)
		if err != nil {
			return err
		}
		cfg := in.req.Config
		cfg.WALDir = p.file(fmt.Sprintf("replica%d", i))
		t0 := time.Now()
		sys, err := jetstream.New(g, alg, append(cfg.Options(), jetstream.WithObserver(rec))...)
		if err != nil {
			return fmt.Errorf("replica %s: %w", in.req.Name, err)
		}
		if last != nil {
			_ = last.Close()
		}
		last = sys
		t1 := time.Now()
		sys.RunInitial()
		t2 := time.Now()
		if _, err := sys.ApplyBatch(in.batches[0]); err != nil {
			return fmt.Errorf("replica %s: %w", in.req.Name, err)
		}
		tr.newT, tr.initT, firstT = append(tr.newT, t1.Sub(t0)), append(tr.initT, t2.Sub(t1)), append(firstT, time.Since(t2))

		mirror := &windowMirror{}
		if err := mirror.init(g, in.batches[0]); err != nil {
			return err
		}
		for b := 1; b < len(in.batches); b++ {
			// Warm-up batches are applied like the service's set-up,
			// outside the samples.
			warm := b < warmBatches
			rec.on.Store(!warm && (b/traceBlock)%2 == 1)
			t0 := time.Now()
			res, err := sys.ApplyBatch(in.batches[b])
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("replica %s batch %d: %w", in.req.Name, b, err)
			}
			dd, err := mirror.apply(in.batches[b])
			if err != nil {
				return fmt.Errorf("mirror %s batch %d: %w", in.req.Name, b, err)
			}
			if !warm {
				tr.observe(rec, b, t0, d, res, in.batches[b].Size())
				tr.deltas = append(tr.deltas, dd)
			}
		}
		rec.on.Store(false)
		if !bitwiseEqual(sys.StateRef(), in.final) {
			r.fail("replica %s differs from its reference", in.req.Name)
		}
	}
	tr.report(r, last)
	r.set("checkpoint.first_batch_ms", ms(quantile(firstT, 0.5)), "ms")
	r.set("engine.idle_spins_per_batch", 0, "count")
	r.set("engine.p1_over_p2_ack", 0, "ratio")
	timedStats(r, tr.sum, 0, float64(tr.batches), nil, nil)
	return writeSpans(p.out(), tr.spans)
}

// windowMirror replays a windowed tenant's graph deltas outside the System:
// the window's expiry deletions merged ahead of the user batch, exactly as
// the System derives them, timed around ApplyDelta alone.
type windowMirror struct {
	g     *jetstream.Graph
	win   *window.Ring
	epoch uint64
}

func (m *windowMirror) init(g *jetstream.Graph, first jetstream.Batch) error {
	win, err := window.New(tenantTTL)
	if err != nil {
		return err
	}
	win.Seed(0, g.Edges())
	m.g, m.win = g, win
	_, err = m.apply(first)
	return err
}

func (m *windowMirror) apply(b jetstream.Batch) (time.Duration, error) {
	m.epoch++
	userDel := make(map[window.Key]bool, len(b.Deletes))
	for _, e := range b.Deletes {
		userDel[window.Key{Src: e.Src, Dst: e.Dst}] = true
	}
	merged := jetstream.Batch{Inserts: b.Inserts}
	for _, k := range m.win.Expire(m.epoch, func(k window.Key) bool { return userDel[k] }) {
		w, _ := m.g.HasEdge(k.Src, k.Dst)
		merged.Deletes = append(merged.Deletes, jetstream.Edge{Src: k.Src, Dst: k.Dst, Weight: w})
	}
	merged.Deletes = append(merged.Deletes, b.Deletes...)
	t0 := time.Now()
	g, err := m.g.ApplyDelta(merged)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	m.g = g
	m.win.Record(m.epoch, b)
	return d, nil
}

// noServiceLayers zeroes the layers only the service workload has.
func noServiceLayers(r *report) {
	for _, m := range [][2]string{
		{"wal.bytes_per_update", "B"}, {"wal.syncs_per_batch", "count"}, {"wal.sync_us_p50", "us"}, {"wal.sync_us_p99", "us"},
		{"checkpoint.first_batch_ms", "ms"}, {"window.expired_per_batch", "count"},
		{"service.ingest_us_p50", "us"}, {"service.ingest_us_p99", "us"}, {"service.handler_us_p50", "us"},
		{"service.http_us_p50", "us"}, {"service.throttled", "count"}, {"service.state_bytes", "B"},
	} {
		r.set(m[0], 0, m[1])
	}
}

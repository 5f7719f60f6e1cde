package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"synpa/internal/core"
	"synpa/internal/obs"
	"synpa/internal/serve"
	"synpa/synpa"
)

const (
	// synpadClients is the closed loop's client count: one connection per
	// CPU of the 2-CPU host the benchmark is sized for. Every caller, a
	// machine's scheduler, blocks on its placement, so the loop is closed.
	synpadClients = 2
	// spanHeader carries the client span's ID to the server, so the
	// handler span of a request names the client span as its parent.
	spanHeader = "Perfbench-Span"
	// recordCores and recordSMT shape the machine the queries come from.
	recordCores, recordSMT = 4, 2
)

// recordTrace is the arrival trace whose SYNPA placement queries the loop
// replays: jobs of a quarter of the reference work arriving at half the
// machine's thread capacity, so the live set grows, shrinks and is often
// odd. The trace is fixed; the run's seed picks which of its queries are
// replayed, and in which order.
func recordTrace(e env) synpa.Trace {
	const work, load, traceSeed = 0.25, 0.5, 1
	jobCycles := work * float64(e.size.refQuanta) * float64(e.size.quantum)
	gap := jobCycles / (load * recordCores * recordSMT)
	return synpa.PoissonTrace("synpad-loop", traceSeed, fleetPool, e.size.recordJobs, gap, work)
}

// recorder is the SYNPA policy of the recording run; it keeps the wire
// form of every model-driven query (PMU samples present, two or more live
// apps) it is asked to place.
type recorder struct {
	*core.Policy
	bodies *[][]byte
}

func (r recorder) Place(st *synpa.QuantumState) synpa.Placement {
	if st.Samples != nil && st.NumApps >= 2 {
		// Marshal cannot fail: the request holds only integers.
		b, _ := json.Marshal(serve.RequestFromState(st))
		*r.bodies = append(*r.bodies, b)
	}
	return r.Policy.Place(st)
}

type synpadState struct {
	model    *synpa.Model
	sys      *synpa.System
	trace    synpa.Trace
	antt     float64 // ANTT of the recorded SYNPA run
	bodies   [][]byte
	expected [][]byte // in-process PlaceOne encoding of each body
}

func synpadSetup(e env, log *spanLog) (*synpadState, error) {
	model, err := trainModel(e.size, log)
	if err != nil {
		return nil, err
	}
	st := &synpadState{model: model, trace: recordTrace(e)}
	if st.sys, err = synpa.New(systemConfig(e.size, recordCores, recordSMT, nil)); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var all [][]byte
	rec := recorder{Policy: st.sys.SYNPAPolicy(model).(*core.Policy), bodies: &all}
	rep, err := st.sys.RunDynamic(st.trace, rec)
	if err != nil {
		return nil, fmt.Errorf("recording run: %w", err)
	}
	st.antt = rep.ANTT
	n := min(len(all), e.size.queries)
	if n == 0 {
		return nil, fmt.Errorf("recording run produced no model-driven queries")
	}
	rng := rand.New(rand.NewPCG(e.seed, 0x5eed))
	for _, i := range rng.Perm(len(all))[:n] {
		st.bodies = append(st.bodies, all[i])
	}

	p := st.sys.SYNPAPolicy(model).(*core.Policy)
	a := p.NewArena()
	for _, b := range st.bodies {
		var q serve.PlaceRequest
		if err := json.Unmarshal(b, &q); err != nil {
			return nil, err
		}
		resp, err := serve.PlaceOne(p, a, &q)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			return nil, err
		}
		st.expected = append(st.expected, buf.Bytes())
	}
	log.record("setup.record", log.newID(), 0, t0, time.Now())
	return st, nil
}

// loopWindow is one measured window of the closed loop.
type loopWindow struct {
	traced     bool
	wall, cpu  time.Duration // cpu: the whole process's, clients and server
	lat        []time.Duration
	failed     int64
	mismatched int64
}

type loadClient struct {
	client   *http.Client
	url      string
	st       *synpadState
	log      *spanLog
	tracing  *atomic.Bool
	next     [synpadClients]int // each client's next query index
	firstErr error
	errMu    sync.Mutex
}

// window runs the closed loop for d (or, with d == 0, one pass over the
// query log) and returns its measurements.
func (c *loadClient) window(d time.Duration, traced bool) loopWindow {
	c.tracing.Store(traced)
	lats := make([][]time.Duration, synpadClients)
	failed := make([]int64, synpadClients)
	mismatched := make([]int64, synpadClients)
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	for gi := 0; gi < synpadClients; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			qi := c.next[gi]
			for sent := 0; ; sent++ {
				if d == 0 && sent*synpadClients >= len(c.st.bodies) {
					break
				}
				if d > 0 && time.Since(start) >= d {
					break
				}
				var id int64
				if traced {
					id = c.log.newID()
				}
				t0 := time.Now()
				status, body, err := c.post(c.st.bodies[qi], id, traced)
				t1 := time.Now()
				if traced {
					c.log.record("client.Request", id, 0, t0, t1)
				}
				lats[gi] = append(lats[gi], t1.Sub(t0))
				switch {
				case err != nil || status != http.StatusOK:
					failed[gi]++
					c.noteErr(fmt.Errorf("query %d: status %d: %v", qi, status, err))
				case !bytes.Equal(body, c.st.expected[qi]):
					mismatched[gi]++
					c.noteErr(fmt.Errorf("query %d: answer differs from in-process PlaceOne", qi))
				}
				qi = (qi + synpadClients) % len(c.st.bodies)
			}
			c.next[gi] = qi
		}(gi)
	}
	wg.Wait()
	w := loopWindow{traced: traced, wall: time.Since(start), cpu: cpuTime() - cpu0}
	for gi := 0; gi < synpadClients; gi++ {
		w.lat = append(w.lat, lats[gi]...)
		w.failed += failed[gi]
		w.mismatched += mismatched[gi]
	}
	return w
}

func (c *loadClient) post(body []byte, id int64, traced bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *loadClient) noteErr(err error) {
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.errMu.Unlock()
}

func runSynpad(e env) (*outcome, error) {
	o := newOutcome(recordCores, recordSMT)
	st, err := setupRuns(e.size.setupReps, o, func(log *spanLog) (*synpadState, error) {
		return synpadSetup(e, log)
	})
	if err != nil {
		return nil, err
	}
	o.details["queries"] = len(st.bodies)

	reg := obs.NewRegistry()
	srv, err := synpa.NewPlacementServer(st.model, synpa.ServerConfig{SharedCache: true, Registry: reg})
	if err != nil {
		return nil, err
	}
	log := newSpanLog()
	var tracing atomic.Bool
	handler := srv.Handler()
	if e.trace {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !tracing.Load() {
				inner.ServeHTTP(w, r)
				return
			}
			parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			log.record("serve.Handler", log.newID(), parent, t0, time.Now())
		})
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	transport := &http.Transport{MaxIdleConnsPerHost: synpadClients, MaxConnsPerHost: synpadClients}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-served
	}()

	c := &loadClient{
		client: &http.Client{Transport: transport, Timeout: 10 * time.Second},
		url:    "http://" + l.Addr().String() + "/v1/place", st: st, log: log, tracing: &tracing,
	}
	// One untimed pass warms the server's memo; its answers are checked
	// like every other.
	warm := c.window(0, false)
	// Memory, before the window so that nothing the benchmark keeps from
	// its windows is counted: four passes over the log.
	var mem []loopWindow
	if err := peakLiveHeap(o, func(func()) error {
		for i := 0; i < 4; i++ {
			mem = append(mem, c.window(0, false))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	runtime.GC() // start the window without set-up garbage
	var plain, traced []loopWindow
	if !e.trace {
		// One-second windows: the figures are medians over them, so a host
		// stall spoils one window, not the run.
		for elapsed := time.Duration(0); elapsed < e.seconds; {
			plain = append(plain, c.window(time.Second, false))
			elapsed += plain[len(plain)-1].wall
		}
	} else {
		// Alternate untraced and traced windows, at least two of each, so
		// both see the same host conditions.
		w := e.seconds / 8
		shared := srv.Policy().SharedCache()
		var invH, invM, pairH, pairM uint64
		var placeN uint64
		var placeSum float64
		var elapsed time.Duration
		for len(traced) < 2 || elapsed < e.seconds {
			plain = append(plain, c.window(w, false))
			before := reg.Snapshot().Histograms["synpad.place.latency_ns"]
			inv0, pair0 := shared.Stats()
			traced = append(traced, c.window(w, true))
			inv1, pair1 := shared.Stats()
			after := reg.Snapshot().Histograms["synpad.place.latency_ns"]
			invH, invM = invH+inv1.Hits-inv0.Hits, invM+inv1.Misses-inv0.Misses
			pairH, pairM = pairH+pair1.Hits-pair0.Hits, pairM+pair1.Misses-pair0.Misses
			placeN += after.Count - before.Count
			placeSum += after.Mean*float64(after.Count) - before.Mean*float64(before.Count)
			elapsed += plain[len(plain)-1].wall + traced[len(traced)-1].wall
		}
		o.metrics["predcache.invert_hit_ratio"] = ratio(invH, invM)
		o.metrics["predcache.pair_hit_ratio"] = ratio(pairH, pairM)
		o.metrics["core.place_calls"] = float64(placeN)
		o.metrics["core.place_busy_s"] = placeSum / 1e9
		o.metrics["serve.place_mean_us"] = 0
		if placeN > 0 {
			o.metrics["serve.place_mean_us"] = placeSum / float64(placeN) / 1e3
		}
	}

	for _, w := range append(append(append([]loopWindow{warm}, mem...), plain...), traced...) {
		o.attempted += int64(len(w.lat))
		o.failed += w.failed
		if w.mismatched > 0 {
			o.fail("%d answers differ from the in-process PlaceOne encoding", w.mismatched)
		}
	}
	if c.firstErr != nil {
		o.details["first_error"] = c.firstErr.Error()
	}

	// tt_gain_pct: the recorded run against the same trace under Linux
	// placement (untimed): Linux ANTT over SYNPA ANTT, minus 1.
	linux, err := st.sys.RunDynamic(st.trace, st.sys.LinuxPolicy())
	if err != nil {
		return nil, err
	}
	o.metrics["antt"] = st.antt
	o.metrics["tt_gain_pct"] = (linux.ANTT/st.antt - 1) * 100

	var perCPU, qps []float64
	lats := make([][]time.Duration, len(plain))
	for i, w := range plain {
		perCPU = append(perCPU, float64(len(w.lat))/w.cpu.Seconds())
		qps = append(qps, float64(len(w.lat))/w.wall.Seconds())
		lats[i] = w.lat
	}
	o.metrics["place_per_cpu_s"] = median(perCPU)
	o.metrics["jobs_per_cpu_s"] = median(perCPU)
	// Machine time whose quantum decisions the daemon served: each answered
	// query schedules one quantum of a recordCores machine.
	o.metrics["sim_mcyc_per_cpu_s"] = median(perCPU) * float64(e.size.quantum) * recordCores / 1e6
	o.details["place_qps"] = median(qps)
	o.placeLatency(lats)
	o.details["windows"] = len(plain)

	if e.trace {
		synpadLayers(e, plain, traced, log, reg, o)
	}
	return o, nil
}

func synpadLayers(e env, plain, traced []loopWindow, log *spanLog, reg *obs.Registry, o *outcome) {
	m := o.metrics
	zeroMetrics(m, "smtcore.step_cycles", "smtcore.span_cycles", "smtcore.ff_cycles", "smtcore.ns_per_cycle",
		"machine.self_s", "machine.slices", "machine.rebinds", "matching.busy_s", "grouping.busy_s",
		"fleet.dispatch_s", "fleet.dispatched", "fleet.deferred_ratio", "admission.queue_depth_p99")
	hist := reg.Snapshot().Histograms["synpad.place.latency_ns"]
	m["core.place_p50_us"] = hist.P50 / 1e3
	m["core.place_p99_us"] = hist.P99 / 1e3

	meanUS := func(d []time.Duration) float64 {
		var s time.Duration
		for _, x := range d {
			s += x
		}
		if len(d) == 0 {
			return 0
		}
		return float64(s.Nanoseconds()) / float64(len(d)) / 1e3
	}
	rtt := log.durations("client.Request")
	handler := log.durations("serve.Handler")
	var plainLat []time.Duration
	var tracedWall time.Duration
	for _, w := range plain {
		plainLat = append(plainLat, w.lat...)
	}
	for _, w := range traced {
		tracedWall += w.wall
	}
	m["serve.rtt_mean_us"] = meanUS(rtt)
	m["serve.handler_mean_us"] = meanUS(handler)
	m["serve.codec_mean_us"] = m["serve.handler_mean_us"] - m["serve.place_mean_us"]
	m["serve.transport_mean_us"] = m["serve.rtt_mean_us"] - m["serve.handler_mean_us"]
	m["serve.rejected"] = float64(reg.Counter("synpad.rejected").Value())
	if len(rtt) != len(handler) {
		o.fail("%d client spans but %d handler spans", len(rtt), len(handler))
	}
	if m["serve.codec_mean_us"] < 0 || m["serve.transport_mean_us"] < 0 {
		o.fail("serving stages do not nest: rtt %.2f, handler %.2f, place %.2f us",
			m["serve.rtt_mean_us"], m["serve.handler_mean_us"], m["serve.place_mean_us"])
	}
	var busy time.Duration
	for _, d := range rtt {
		busy += d
	}
	m["unattributed_pct"] = 100 * (1 - busy.Seconds()/(synpadClients*tracedWall.Seconds()))
	m["trace_overhead_pct"] = 100 * (meanUS(rtt)/meanUS(plainLat) - 1)
	checkAccounting(o, m["unattributed_pct"])
	writeSpans(e, log, o)
}

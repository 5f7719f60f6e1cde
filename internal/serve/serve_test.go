package serve_test

// The serving differential gate: every byte POST /v1/place returns must be
// bit-identical to what the in-process PlaceOne produces on an independent
// policy instance — under concurrency (run these with -race), in both cache
// modes, through the batch endpoint, and across model hot-swaps.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"synpa/internal/core"
	"synpa/internal/obs"
	"synpa/internal/pmu"
	"synpa/internal/predcache"
	"synpa/internal/serve"
)

// synthQueries builds a deterministic stream of placement queries that
// walks the serving path end to end: PMU samples from a seeded LCG, each
// query's Prev evolving under the reference policy's own decisions, so
// inversion, pair prediction, matching and hysteresis all fire.
func synthQueries(t *testing.T, model *core.Model, n int) []*serve.PlaceRequest {
	t.Helper()
	p := core.MustPolicy(model, core.PolicyOptions{})
	a := p.NewArena()

	const cores, apps = 4, 8
	lcg := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg
	}
	prev := make([]int, apps)
	for i := range prev {
		prev[i] = i % cores
	}

	out := make([]*serve.PlaceRequest, 0, n)
	for q := 0; q < n; q++ {
		samples := make([][]uint64, apps)
		for i := range samples {
			row := make([]uint64, pmu.NumEvents)
			cycles := 20_000 + next()%5_000
			row[pmu.CPUCycles] = cycles
			row[pmu.StallFrontend] = next() % (cycles / 2)
			row[pmu.StallBackend] = next() % (cycles / 2)
			row[pmu.InstSpec] = cycles + next()%cycles
			row[pmu.InstRetired] = row[pmu.InstSpec] - next()%(row[pmu.InstSpec]/4)
			out := row // remaining fine-grained events: small deterministic values
			for e := range out {
				if out[e] == 0 {
					out[e] = next() % 1_000
				}
			}
			samples[i] = row
		}
		req := &serve.PlaceRequest{
			NumCores: cores,
			NumApps:  apps,
			Quantum:  q + 1,
			Prev:     append([]int(nil), prev...),
			Samples:  samples,
		}
		out2, err := serve.PlaceOne(p, a, req)
		if err != nil {
			t.Fatalf("synth query %d: %v", q, err)
		}
		prev = out2.Placement
		out = append(out, req)
	}
	return out
}

// inProcessBytes renders the reference answer exactly as the HTTP handler
// does: PlaceOne on an independent policy, then json.NewEncoder (one
// trailing newline).
func inProcessBytes(t *testing.T, p *core.Policy, a *core.Arena, q *serve.PlaceRequest) []byte {
	t.Helper()
	resp, err := serve.PlaceOne(p, a, q)
	if err != nil {
		t.Fatalf("in-process PlaceOne: %v", err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, raw
}

func newTestServer(t *testing.T, model *core.Model, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv, err := serve.New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	return srv, hts
}

// TestPlaceDifferential is the acceptance gate: the HTTP response bytes of
// /v1/place equal the in-process bytes for every query, in both cache
// modes, with concurrent clients (run under -race).
func TestPlaceDifferential(t *testing.T) {
	model := core.PaperCoefficients()
	queries := synthQueries(t, model, 48)
	for _, shared := range []bool{false, true} {
		name := map[bool]string{false: "none", true: "shared"}[shared]
		t.Run(name, func(t *testing.T) {
			_, hts := newTestServer(t, model, serve.Config{SharedCache: shared})

			// Independent in-process reference: its own policy instance, its
			// own cache; agreement is decided by the bits, not shared state.
			ref := core.MustPolicy(model, core.PolicyOptions{})
			if shared {
				ref.SetSharedCache(predcache.NewShared(predcache.Options{}, 0))
			}

			const workers = 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					a := ref.NewArena()
					for qi := w; qi < len(queries); qi += workers {
						body, err := json.Marshal(queries[qi])
						if err != nil {
							t.Error(err)
							return
						}
						resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place", body)
						if resp.StatusCode != http.StatusOK {
							t.Errorf("query %d: status %s: %s", qi, resp.Status, raw)
							return
						}
						want := inProcessBytes(t, ref, a, queries[qi])
						if !bytes.Equal(raw, want) {
							t.Errorf("query %d: HTTP response diverges from in-process\nhttp: %s\nref:  %s", qi, raw, want)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestBatchDifferential streams queries through /v1/place/batch and checks
// the JSONL answers line-for-line against in-process decisions, including
// a malformed line answered 1:1 in position by a structured error.
func TestBatchDifferential(t *testing.T) {
	model := core.PaperCoefficients()
	queries := synthQueries(t, model, 12)
	_, hts := newTestServer(t, model, serve.Config{})

	const badLine = 7
	var in bytes.Buffer
	for qi, q := range queries {
		if qi == badLine {
			in.WriteString("{\"num_cores\": \"oops\"}\n")
			continue
		}
		b, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		in.Write(b)
		in.WriteByte('\n')
	}

	resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place/batch", in.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %s: %s", resp.Status, raw)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != len(queries) {
		t.Fatalf("batch returned %d lines for %d queries", len(lines), len(queries))
	}

	ref := core.MustPolicy(model, core.PolicyOptions{})
	a := ref.NewArena()
	for qi, line := range lines {
		if qi == badLine {
			var e serve.ErrorResponse
			if err := json.Unmarshal(line, &e); err != nil || e.Error == "" {
				t.Fatalf("line %d: want structured error, got %s", qi, line)
			}
			continue
		}
		want := bytes.TrimSuffix(inProcessBytes(t, ref, a, queries[qi]), []byte("\n"))
		if !bytes.Equal(line, want) {
			t.Fatalf("batch line %d diverges from in-process\nhttp: %s\nref:  %s", qi, line, want)
		}
	}
}

// TestHotSwapUnderLoad hammers /v1/place from several goroutines while the
// model is swapped repeatedly; every request must succeed (zero drops, no
// torn policy) and the generation must advance once per swap.
func TestHotSwapUnderLoad(t *testing.T) {
	model := core.PaperCoefficients()
	queries := synthQueries(t, model, 16)
	srv, hts := newTestServer(t, model, serve.Config{})

	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	// The swapped-in model: same shape, slightly different coefficients, so
	// old- and new-generation answers are both valid placements.
	model2 := core.PaperCoefficients()
	model2.Coef[0].Alpha += 0.001
	var modelBody bytes.Buffer
	if err := core.WriteModelJSON(&modelBody, model2); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const clients = 4
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place", bodies[(w+i)%len(bodies)])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("place during swap: status %s: %s", resp.Status, raw)
					return
				}
				var pr serve.PlaceResponse
				if err := json.Unmarshal(raw, &pr); err != nil || len(pr.Placement) == 0 {
					t.Errorf("place during swap: bad body %s", raw)
					return
				}
			}
		}(w)
	}

	const swaps = 8
	for i := 0; i < swaps; i++ {
		resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/model", modelBody.Bytes())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: status %s: %s", i, resp.Status, raw)
		}
		var sr serve.SwapResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if want := int64(i + 2); sr.Generation != want {
			t.Fatalf("swap %d: generation %d, want %d", i, sr.Generation, want)
		}
	}
	close(stop)
	wg.Wait()

	if gen := srv.Generation(); gen != swaps+1 {
		t.Fatalf("final generation %d, want %d", srv.Generation(), swaps+1)
	}
	resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place", bodies[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap place: %s", resp.Status)
	}
	if got := resp.Header.Get("Synpad-Generation"); got != fmt.Sprint(swaps+1) {
		t.Fatalf("post-swap generation header %q, want %d (body %s)", got, swaps+1, raw)
	}
}

// TestErrors pins the failure-mode contract: malformed JSON and infeasible
// queries get 400 with a structured body, oversized payloads get 413, and
// bad models are rejected without disturbing the serving generation.
func TestErrors(t *testing.T) {
	model := core.PaperCoefficients()
	srv, hts := newTestServer(t, model, serve.Config{
		MaxRequestBytes: 2 << 10,
		MaxBatchBytes:   4 << 10,
	})

	assertError := func(t *testing.T, resp *http.Response, raw []byte, wantStatus int) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %s, want %d (body %s)", resp.Status, wantStatus, raw)
		}
		var e serve.ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Fatalf("want structured error body, got %s", raw)
		}
	}

	// Single queries that must fail: malformed, unknown or misspelled keys
	// (keys match the field names exactly), data after the object,
	// infeasible shapes, repeated app identities, a prev with more apps on
	// a core than it has threads, and bodies over MaxRequestBytes, however
	// they are padded.
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed-json", `{"num_cores": `, http.StatusBadRequest},
		{"unknown-field", `{"num_cores": 4, "num_apps": 2, "bogus": 1}`, http.StatusBadRequest},
		{"case-variant-key", `{"Num_Cores": 4, "num_apps": 2}`, http.StatusBadRequest},
		{"trailing-data", `{"num_cores": 4, "num_apps": 2} {"num_cores": 2}`, http.StatusBadRequest},
		{"infeasible-query", `{"num_cores": 2, "num_apps": 5}`, http.StatusBadRequest},
		{"too-many-cores", fmt.Sprintf(`{"num_cores": %d, "num_apps": 2}`, serve.MaxCores+1), http.StatusBadRequest},
		{"negative-dispatch-width", `{"num_cores": 2, "num_apps": 2, "dispatch_width": -4}`, http.StatusBadRequest},
		{"duplicate-app-ids", `{"num_cores": 2, "num_apps": 3, "app_ids": [4, 7, 4]}`, http.StatusBadRequest},
		{"overfull-prev", `{"num_cores": 2, "num_apps": 3, "prev": [1, 1, 1]}`, http.StatusBadRequest},
		{"oversized-place", fmt.Sprintf(`{"num_cores": 4, "num_apps": 2, "app_ids": [%s1]}`, strings.Repeat("1,", 4<<10)), http.StatusRequestEntityTooLarge},
		{"oversized-padding", `{"num_cores": 4, "num_apps": 2}` + strings.Repeat(" ", 4<<10), http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place", []byte(tc.body))
			assertError(t, resp, raw, tc.status)
		})
	}
	t.Run("too-many-cores-batch-line", func(t *testing.T) {
		body := `{"num_cores": 2, "num_apps": 2}` + "\n" + `{"num_cores": 100000, "num_apps": 2}` + "\n"
		resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place/batch", []byte(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %s: %s", resp.Status, raw)
		}
		lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
		if len(lines) != 2 {
			t.Fatalf("batch returned %d lines for 2 queries: %s", len(lines), raw)
		}
		var ok serve.PlaceResponse
		if err := json.Unmarshal(lines[0], &ok); err != nil || len(ok.Placement) != 2 {
			t.Fatalf("line 0: want a placement, got %s", lines[0])
		}
		var e serve.ErrorResponse
		if err := json.Unmarshal(lines[1], &e); err != nil || !strings.Contains(e.Error, "num_cores") {
			t.Fatalf("line 1: want a num_cores error, got %s", lines[1])
		}
	})
	t.Run("stricter-batch-lines", func(t *testing.T) {
		// Batch lines follow the single-query rules; an empty line carries
		// no query and gets no answer.
		body := `{"num_cores": 2, "num_apps": 2}` + "\n\n" +
			`{"num_cores": 2, "num_apps": 2, "bogus": 1}` + "\n" +
			`{"Num_Cores": 2, "num_apps": 2}` + "\n" +
			`{"num_cores": 2, "num_apps": 2} x` + "\n" +
			`{"num_cores": 2, "num_apps": 2, "app_ids": [5, 5]}` + "\n" +
			`{"num_cores": 2, "num_apps": 3, "prev": [0, 0, 0], "smt_level": 2}` + "\n"
		wantErr := []string{"parsing request", "parsing request", "parsing request", "repeats app_ids[0]", "more than 2 apps"}
		resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place/batch", []byte(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %s: %s", resp.Status, raw)
		}
		lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
		if len(lines) != 1+len(wantErr) {
			t.Fatalf("batch returned %d lines for %d queries: %s", len(lines), 1+len(wantErr), raw)
		}
		var ok serve.PlaceResponse
		if err := json.Unmarshal(lines[0], &ok); err != nil || len(ok.Placement) != 2 {
			t.Fatalf("line 0: want a placement, got %s", lines[0])
		}
		for i, line := range lines[1:] {
			var e serve.ErrorResponse
			if err := json.Unmarshal(line, &e); err != nil || !strings.Contains(e.Error, wantErr[i]) {
				t.Fatalf("line %d: want an error containing %q, got %s", i+1, wantErr[i], line)
			}
		}
	})
	t.Run("oversized-batch", func(t *testing.T) {
		body := bytes.Repeat([]byte(`{"num_cores": 4, "num_apps": 2}`+"\n"), 1<<10)
		resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place/batch", body)
		assertError(t, resp, raw, http.StatusRequestEntityTooLarge)
	})
	t.Run("bad-model", func(t *testing.T) {
		resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/model", []byte(`{"categories": ["a"], "coefficients": []}`))
		assertError(t, resp, raw, http.StatusBadRequest)
		if srv.Generation() != 1 {
			t.Fatalf("failed swap advanced the generation to %d", srv.Generation())
		}
	})
}

// TestBatchLineLimit pins the per-line limit of /v1/place/batch: a line
// over MaxRequestBytes aborts the stream with one trailing error line,
// counted once, after the answers to the lines before it. It holds for a
// limit below the scanner's usual 64 KiB buffer and for lines above it.
func TestBatchLineLimit(t *testing.T) {
	model := core.PaperCoefficients()
	good := `{"num_cores": 2, "num_apps": 2}`
	for _, size := range []int{447, 70 << 10} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			reg := obs.NewRegistry()
			_, hts := newTestServer(t, model, serve.Config{MaxRequestBytes: 256, Registry: reg})
			long := good + strings.Repeat(" ", size-len(good))
			resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place/batch", []byte(good+"\n"+long+"\n"))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch status %s: %s", resp.Status, raw)
			}
			lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
			if len(lines) != 2 {
				t.Fatalf("batch returned %d lines, want an answer and an abort line: %s", len(lines), raw)
			}
			var ok serve.PlaceResponse
			if err := json.Unmarshal(lines[0], &ok); err != nil || len(ok.Placement) != 2 {
				t.Fatalf("line 0: want a placement, got %s", lines[0])
			}
			var e serve.ErrorResponse
			if err := json.Unmarshal(lines[1], &e); err != nil || !strings.Contains(e.Error, "batch stream aborted") {
				t.Fatalf("line 1: want a batch stream aborted error, got %s", lines[1])
			}
			c := reg.Snapshot().Counters
			if c["synpad.batch.errors"] != 1 || c["synpad.batch.queries"] != 1 {
				t.Fatalf("synpad.batch.errors = %d, queries = %d; want 1 and 1",
					c["synpad.batch.errors"], c["synpad.batch.queries"])
			}
		})
	}
}

// TestStatsAndHealth exercises /v1/stats and /healthz over both cache
// modes.
func TestStatsAndHealth(t *testing.T) {
	model := core.PaperCoefficients()
	queries := synthQueries(t, model, 4)
	for _, sharedMode := range []bool{false, true} {
		name := map[bool]string{false: "none", true: "shared"}[sharedMode]
		t.Run(name, func(t *testing.T) {
			_, hts := newTestServer(t, model, serve.Config{SharedCache: sharedMode})
			for _, q := range queries {
				b, _ := json.Marshal(q)
				if resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place", b); resp.StatusCode != http.StatusOK {
					t.Fatalf("place: %s: %s", resp.Status, raw)
				}
			}

			resp, err := hts.Client().Get(hts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st serve.StatsResponse
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if st.Generation != 1 || st.Policy == "" {
				t.Fatalf("stats: %+v", st)
			}
			if st.CacheMode != name {
				t.Fatalf("cache mode %q, want %q", st.CacheMode, name)
			}
			if sharedMode {
				if st.InvertCache == nil || st.InvertCache.Hits+st.InvertCache.Misses == 0 {
					t.Fatalf("shared mode reported no invert-cache traffic: %+v", st.InvertCache)
				}
			}
			if got := st.Metrics.Counters["synpad.place.requests"]; got != int64(len(queries)) {
				t.Fatalf("place.requests = %d, want %d", got, len(queries))
			}
			if h, ok := st.Metrics.Histograms["synpad.place.latency_ns"]; !ok || h.Count != uint64(len(queries)) {
				t.Fatalf("latency histogram: %+v", st.Metrics.Histograms)
			}

			resp, err = hts.Client().Get(hts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var hr serve.HealthResponse
			if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if !hr.OK || hr.Generation != 1 {
				t.Fatalf("healthz: %+v", hr)
			}
		})
	}
}

// TestGracefulDrain starts a real listener, fires concurrent requests and
// shuts down: every started request must complete, Serve must return
// http.ErrServerClosed, and the port must stop accepting.
func TestGracefulDrain(t *testing.T) {
	model := core.PaperCoefficients()
	queries := synthQueries(t, model, 4)
	srv, err := serve.New(model, serve.Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	url := "http://" + l.Addr().String()

	body, _ := json.Marshal(queries[0])
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postJSON(t, http.DefaultClient, url+"/v1/place", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("in-flight request failed during drain: %s: %s", resp.Status, raw)
			}
		}()
	}
	wg.Wait() // all in flight completed before Shutdown below can cut them off

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := http.Post(url+"/v1/place", "application/json", bytes.NewReader(body)); err == nil {
		t.Fatal("post-shutdown request succeeded; listener still accepting")
	}
}

// TestUnencodableAnswer serves a model whose finite coefficients overflow
// the predicted degradations to +Inf, which JSON cannot carry: /v1/place
// must answer 500 with a structured error and count it, and the batch
// endpoint must answer the query with an error line in its place and
// count it as an error only, never also as a query.
func TestUnencodableAnswer(t *testing.T) {
	model := core.PaperCoefficients()
	for k := range model.Coef {
		model.Coef[k].Alpha = 1e308 // each category finite, their sum not
	}
	queries := synthQueries(t, core.PaperCoefficients(), 2)
	reg := obs.NewRegistry()
	_, hts := newTestServer(t, model, serve.Config{Registry: reg})
	body, err := json.Marshal(queries[0])
	if err != nil {
		t.Fatal(err)
	}

	resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %s, want 500 (body %s)", resp.Status, raw)
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("want a structured error body, got %q", raw)
	}
	if got := reg.Snapshot().Counters["synpad.place.errors"]; got != 1 {
		t.Fatalf("synpad.place.errors = %d, want 1", got)
	}

	resp, raw = postJSON(t, hts.Client(), hts.URL+"/v1/place/batch", append(append(body, '\n'), body...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %s: %s", resp.Status, raw)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("batch returned %d lines for 2 queries: %s", len(lines), raw)
	}
	for i, line := range lines {
		var e serve.ErrorResponse
		if err := json.Unmarshal(line, &e); err != nil || !strings.Contains(e.Error, "encoding response") {
			t.Fatalf("line %d: want an encoding error, got %s", i, line)
		}
	}
	c := reg.Snapshot().Counters
	if c["synpad.batch.errors"] != 2 || c["synpad.batch.queries"] != 0 {
		t.Fatalf("synpad.batch.errors = %d, queries = %d; want 2 and 0",
			c["synpad.batch.errors"], c["synpad.batch.queries"])
	}
}

// tenCategoryModel is a 10-category model (the §VI-A preliminary model's
// shape) with moderate interference in every category.
func tenCategoryModel() *core.Model {
	m := &core.Model{Categories: core.TenCategories}
	for k := range core.TenCategories {
		m.Coef = append(m.Coef, core.Coefficients{Alpha: 0.01 * float64(k%3), Beta: 1, Gamma: 0.05, Rho: 0.02})
	}
	return m
}

// TestSwapServesTenCategoryModel swaps a 10-category model in through
// /v1/model and asks /v1/place for a paired decision: the recorded query
// with its four apps paired on two cores must answer 200 with a placement
// and finite degradations. A model with no extractor (five categories)
// must be refused at swap with a 400, leaving the 10-category generation
// serving.
func TestSwapServesTenCategoryModel(t *testing.T) {
	srv, hts := newTestServer(t, core.PaperCoefficients(), serve.Config{})
	body, err := json.Marshal(tenCategoryModel())
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/model", body)
	var sr serve.SwapResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &sr) != nil || sr.Categories != 10 {
		t.Fatalf("10-category swap: %s: %s", resp.Status, raw)
	}

	recorded, err := os.ReadFile("testdata/place_request.json")
	if err != nil {
		t.Fatal(err)
	}
	var q map[string]any
	if err := json.Unmarshal(recorded, &q); err != nil {
		t.Fatal(err)
	}
	q["prev"] = []int{0, 0, 1, 1}
	paired, _ := json.Marshal(q)
	place := func() {
		t.Helper()
		resp, raw := postJSON(t, hts.Client(), hts.URL+"/v1/place", paired)
		var pr serve.PlaceResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &pr) != nil || len(pr.Placement) != 4 {
			t.Fatalf("paired place on the 10-category model: %s: %s", resp.Status, raw)
		}
		if len(pr.Degradations) != 4 {
			t.Fatalf("degradations %v, want one per app", pr.Degradations)
		}
		for i, d := range pr.Degradations {
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 1 {
				t.Fatalf("app %d degradation %v", i, d)
			}
		}
	}
	place()

	five := &core.Model{}
	for k := range 5 {
		five.Categories = append(five.Categories, fmt.Sprint("c", k))
		five.Coef = append(five.Coef, core.Coefficients{Beta: 1})
	}
	body, _ = json.Marshal(five)
	resp, raw = postJSON(t, hts.Client(), hts.URL+"/v1/model", body)
	var e serve.ErrorResponse
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || !strings.Contains(e.Error, "5-category") {
		t.Fatalf("5-category swap: %s: %s; want a 400 naming the category count", resp.Status, raw)
	}
	if srv.Generation() != 2 {
		t.Fatalf("refused swap moved the generation to %d", srv.Generation())
	}
	place()
}

// Command perfbench is the repository benchmark. It runs one named
// workload against the SYNPA simulator, the fleet simulator or the synpad
// placement daemon for a fixed wall-clock window, checks the outputs, and
// prints one JSON result line: the end-to-end metrics of an untraced run,
// or the per-layer metrics of a traced run.
//
//	python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 12 --trace 0
//
// The benchmark drives the program only through its public entry points
// and times the calls into them from outside; it adds no tracing inside
// the program. README.md lists the workloads, every metric's definition
// and which end-to-end metric each per-layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Metric names with their units: the end-to-end set printed by untraced
// runs and the per-layer set printed by traced runs. Every workload prints
// every name of its set.
var (
	e2eMetrics = []nameUnit{
		{"setup_s", "s"},
		{"sim_mcyc_per_cpu_s", "Mcyc/cpu-s"},
		{"tt_gain_pct", "%"},
		{"jobs_per_cpu_s", "1/cpu-s"},
		{"antt", "ratio"},
		{"place_per_cpu_s", "1/cpu-s"},
		{"place_p50_us", "us"},
		{"peak_heap_mb", "MiB"},
	}
	layerMetrics = []nameUnit{
		{"smtcore.step_cycles", "count"},
		{"smtcore.span_cycles", "count"},
		{"smtcore.ff_cycles", "count"},
		{"smtcore.ns_per_cycle", "ns"},
		{"machine.self_s", "s"},
		{"machine.slices", "count"},
		{"machine.rebinds", "count"},
		{"core.place_calls", "count"},
		{"core.place_busy_s", "s"},
		{"core.place_p50_us", "us"},
		{"core.place_p99_us", "us"},
		{"matching.busy_s", "s"},
		{"grouping.busy_s", "s"},
		{"predcache.invert_hit_ratio", "ratio"},
		{"predcache.pair_hit_ratio", "ratio"},
		{"fleet.dispatch_s", "s"},
		{"fleet.dispatched", "count"},
		{"fleet.deferred_ratio", "ratio"},
		{"admission.queue_depth_p99", "count"},
		{"setup.train_s", "s"},
		{"setup.targets_s", "s"},
		{"setup.record_s", "s"},
		{"serve.rtt_mean_us", "us"},
		{"serve.handler_mean_us", "us"},
		{"serve.place_mean_us", "us"},
		{"serve.codec_mean_us", "us"},
		{"serve.transport_mean_us", "us"},
		{"serve.rejected", "count"},
		{"unattributed_pct", "%"},
		{"trace_overhead_pct", "%"},
	}
)

type nameUnit struct{ name, unit string }

// workloads maps each workload name to its runner.
var workloads = map[string]func(env) (*outcome, error){
	"paper-suite": func(e env) (*outcome, error) { return runSuite(e, paperSuite) },
	"smt4-suite":  func(e env) (*outcome, error) { return runSuite(e, smt4Suite) },
	"fleet-churn": runFleet,
	"synpad-loop": runSynpad,
}

// size fixes every input dimension of a run. "full" is the benchmark;
// "tiny" is the smoke test's, small enough to run all four workloads in
// seconds, and is not reachable from the command line.
type size struct {
	name      string
	quantum   uint64
	refQuanta int
	// setupReps is how many times set-up runs (see setupRuns).
	setupReps int
	// suite lists the standard workloads the two suites run.
	suite []string
	// fleetMachines and fleetJobs size one fleet-churn repetition.
	fleetMachines, fleetJobs int
	// recordJobs sizes the dynamic run synpad-loop records its queries
	// from; queries caps the replayed log.
	recordJobs, queries int
}

var sizes = map[string]size{
	"full": {
		name: "full", quantum: 8000, refQuanta: 30, setupReps: 3,
		suite: []string{"be0", "be1", "be2", "be3", "be4", "fe0", "fe1", "fe2", "fe3", "fe4",
			"fb0", "fb1", "fb2", "fb3", "fb4", "fb5", "fb6", "fb7", "fb8", "fb9"},
		fleetMachines: 32, fleetJobs: 3000,
		recordJobs: 400, queries: 256,
	},
	"tiny": {
		name: "tiny", quantum: 8000, refQuanta: 10, setupReps: 1,
		suite:         []string{"be0", "fe0", "fb0", "fb1"},
		fleetMachines: 4, fleetJobs: 60,
		recordJobs: 12, queries: 24,
	},
}

// env is one run's parameters.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	size     size
	// spanDir receives the traced run's spans.
	spanDir string
}

// outcome is what a workload runner reports.
type outcome struct {
	attempted, failed int64
	// problems lists every failed output check; empty means correct.
	problems []string
	metrics  map[string]float64
	// shape records the simulated system for the provenance line.
	cores, smt int
	// details are printed on their own line ahead of the result.
	details map[string]any
}

func newOutcome(cores, smt int) *outcome {
	return &outcome{metrics: map[string]float64{}, details: map[string]any{}, cores: cores, smt: smt}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.Parse()

	if _, known := workloads[*workload]; !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := env{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, size: sizes["full"], spanDir: filepath.Join(root, ".bench_build", "spans"),
	}
	res, lines, err := run(e, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload and returns its result plus the provenance
// and detail lines printed ahead of it.
func run(e env, root string) (*result, []string, error) {
	o, err := workloads[e.workload](e)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", e.workload, err)
	}
	want := e2eMetrics
	if e.trace {
		want = layerMetrics
	}
	res := &result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := o.metrics[m.name]
		if !ok {
			o.fail("metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	res.Correct = len(o.problems) == 0
	if res.Attempted < 1 {
		return nil, nil, errors.New("no operation attempted")
	}

	prov := map[string]any{
		"workload": e.workload, "seed": e.seed, "size": e.size.name, "trace": e.trace,
		"seconds": e.seconds.Seconds(), "quantum": e.size.quantum, "refquanta": e.size.refQuanta,
		"cores": o.cores, "smt": o.smt,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"git_rev": gitRev(root), "source_sha256": sourceDigest(root),
	}
	var lines []string
	for _, kv := range []struct {
		key string
		val any
	}{{"provenance", prov}, {"details", o.details}, {"problems", o.problems}} {
		b, err := json.Marshal(map[string]any{kv.key: kv.val})
		if err != nil {
			return nil, nil, err
		}
		lines = append(lines, string(b))
	}
	return res, lines, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// repoRoot finds the checkout root: the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// gitRev is the checkout's git revision, or "unavailable" when the
// checkout is not a git work tree; sourceDigest identifies the source
// either way.
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unavailable"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories such as the build directory), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setupSteps are the spans set-up records.
var setupSteps = []string{"setup.train", "setup.targets", "setup.record"}

// setupRuns runs set-up reps times and returns the last state. setup_s is
// the median over the repetitions of the CPU time set-up took (see
// cpuTime). The setup.* per-layer metrics are each step's minimum wall
// time over the repetitions.
func setupRuns[T any](reps int, o *outcome, fn func(*spanLog) (T, error)) (T, error) {
	var state T
	walls := make([]float64, 0, reps)
	cpus := make([]float64, 0, reps)
	steps := map[string][]float64{}
	for r := 0; r < reps; r++ {
		log := newSpanLog()
		t0, c0 := time.Now(), cpuTime()
		s, err := fn(log)
		if err != nil {
			return state, fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		for _, name := range setupSteps {
			steps[name] = append(steps[name], log.total(name).Seconds())
		}
		state = s
	}
	for name, v := range steps {
		o.metrics[name+"_s"] = slices.Min(v)
	}
	o.metrics["setup_s"] = median(cpus)
	o.details["setup_cpu_s_reps"] = cpus
	o.details["setup_wall_s_reps"] = walls
	return state, nil
}

// cpuTime is the CPU time the process has used so far, user and system,
// over all its threads. The benchmark's rates are work per CPU second, not
// per wall second: on a shared virtual machine the host takes the virtual
// CPUs away for stretches of seconds (steal time), which wall time counts
// and CPU time does not. On the sizing host, in ten minutes of such
// interference, six paper-suite runs read 20.9 to 39.9 simulated Mcycles
// per wall second and 23.9 to 25.7 per CPU second.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch tracks the peak live heap over the measured window: after
// every garbage collection it reads the bytes that collection found
// reachable (/gc/heap/live:bytes), a figure that does not depend on when
// the collector happened to run. A finalizer on a sentinel object, re-armed
// each time it fires, runs once per completed collection.
type heapWatch struct {
	mu      sync.Mutex
	stopped bool
	peak    uint64
	gcs     int
}

// peakLiveHeap runs fn once, untimed, with the collector running at every
// 5% of heap growth so the live heap is sampled finely, and records the
// peak live heap in MiB. fn may also call gcSample to collect and sample at
// a point of its choosing.
func peakLiveHeap(o *outcome, fn func(gcSample func()) error) error {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	h := &heapWatch{}
	h.arm()
	err := fn(func() {
		runtime.GC()
		h.mu.Lock()
		h.sample()
		h.mu.Unlock()
	})
	o.metrics["peak_heap_mb"] = h.stopMiB()
	o.details["memory_gcs"] = h.gcs
	return err
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(new([16]byte), func(*[16]byte) {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.stopped {
			return
		}
		h.sample()
		h.arm()
	})
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
	h.gcs++
}

// stopMiB ends the watch and returns the peak live heap in MiB.
func (h *heapWatch) stopMiB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	h.sample()
	return float64(h.peak) / (1 << 20)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank-interpolated q-quantile of v (v is not
// modified); 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// placeLatency records the median over repetitions of each repetition's
// p50 and p99 latency in µs, plus the sample count. The p50 is the
// end-to-end place_p50_us; the p99 is printed with the details but is not
// an end-to-end metric, because on a virtual machine it follows the host:
// pauses of a few hundred microseconds that hit 1% of the calls set it, so
// over ten runs of one workload its spread reached 0.45 of its median while
// the p50's stayed within 0.11 (README.md, End-to-end metrics).
func (o *outcome) placeLatency(reps [][]time.Duration) {
	var p50s, p99s []float64
	var samples int
	for _, lat := range reps {
		us := durationsUS(lat)
		p50s = append(p50s, quantile(us, 0.5))
		p99s = append(p99s, quantile(us, 0.99))
		samples += len(lat)
	}
	o.metrics["place_p50_us"] = median(p50s)
	o.details["place_p99_us"] = median(p99s)
	o.details["latency_samples"] = samples
}

func durationsUS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x.Nanoseconds()) / 1e3
	}
	return out
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

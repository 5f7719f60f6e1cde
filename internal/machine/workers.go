// Intra-run parallel quantum execution: within one scheduling quantum the
// cores are fully independent — each core's step touches only its own
// thread contexts, its bound applications' private RNG streams and their
// PMU banks — so the per-core stepping can be sharded across a pool of
// worker goroutines without any synchronisation beyond the quantum barrier.
//
// Determinism: core i is always stepped by shard i mod width, each core's
// execution is a pure function of its own pre-quantum state, and the runner
// reads results (PMU banks, retired counts) only after the barrier, in app
// order on the calling goroutine. The merge order is therefore fixed
// regardless of worker scheduling, and a run with Workers=N is bit-identical
// to Workers=1 (differential-tested in workers_test.go and synpa's
// parallel_test.go).
//
// The barrier pool itself lives in internal/pool (ShardPool) so the fleet
// layer can apply the same invariant one level up — machines sharded within
// a cluster instead of cores within a machine. The pool is run-scoped:
// Run/RunDynamic start it, every quantum dispatches one shard per worker
// plus the shard the calling goroutine executes itself, and the pool shuts
// down when the run returns — no goroutines outlive a run.
//
// Config.Workers is the one knob for the width: zero selects GOMAXPROCS
// and one serialises. Callers that already fan independent runs out across
// CPUs (the experiment suite, the fleet's machines) set it to one, and a
// one-core machine (RunPinned) resolves to one by the core-count cap.
package machine

import (
	"runtime"

	"synpa/internal/pool"
)

// ResolveWorkers resolves a configured worker count: a non-positive count
// falls back to GOMAXPROCS, and the result is clamped to [1, tasks].
func ResolveWorkers(configured, tasks int) int {
	w := configured
	if w <= 0 {
		// The worker count chooses how cores are sharded across
		// goroutines, never what any core computes: the quantum barrier
		// makes every width bit-identical (the parallel-merge invariant in
		// smtcore/DESIGN.md), so reading the host here cannot reach an
		// observable bit.
		//synpa:lint-allow nondet GOMAXPROCS only sizes the shard pool; results are bit-identical at any width
		w = runtime.GOMAXPROCS(0)
	}
	return min(max(w, 1), max(tasks, 1))
}

// EffectiveWorkers resolves the worker count a machine built from this
// configuration will step cores with: Config.Workers, else GOMAXPROCS —
// capped at the core count. Callers that fan runs out themselves set
// Workers to 1.
func (c Config) EffectiveWorkers() int {
	return ResolveWorkers(c.Workers, c.Cores)
}

// startPool launches the run-scoped worker pool and returns its stop
// function (always non-nil; a no-op for serial machines). The calling
// goroutine acts as shard 0, so width-1 workers are spawned.
func (m *Machine) startPool() func() {
	if m.workers <= 1 {
		return func() {}
	}
	p := pool.NewShardPool(m.workers)
	m.pool = p
	return func() {
		p.Close()
		m.pool = nil
	}
}

// stepCores executes one quantum slice on the cores — those marked in busy,
// or all of them when busy is nil — sharded across the run's worker pool
// (inline on the calling goroutine when the pool is off).
func (m *Machine) stepCores(cycles uint64, busy []bool) {
	m.pool.Run(len(m.cores), func(i int) {
		if busy == nil || busy[i] {
			m.cores[i].Run(cycles)
		}
	})
}

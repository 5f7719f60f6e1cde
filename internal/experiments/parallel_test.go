//go:build !race

// The suite-level parallel differential: full fig5/table4/dynamic-table
// reproduction at two worker counts. It re-runs the whole scaled
// evaluation twice, so it is excluded from -race runs (the race-enabled
// concurrency differentials live at the machine and synpa layers, which
// exercise the same sharded engine in seconds).
package experiments

import (
	"reflect"
	"testing"
)

// workersConfig is fastConfig with intra-run worker sharding enabled at
// the given count: suite-level fan-out is disabled so the per-run worker
// pool is the only parallelism.
func workersConfig(workers int) Config {
	cfg := fastConfig()
	cfg.Parallel = false
	cfg.Machine.Workers = workers
	return cfg
}

// TestSuiteWorkersBitIdentical asserts that the paper's headline tables —
// the trained coefficients (table4), the per-workload turnaround speedups
// (fig5) and the dyn0-dyn4 open-system table — are bit-identical between
// Workers=1 and Workers=4.
func TestSuiteWorkersBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	type outputs struct {
		table4, fig5, dyn [][]string
	}
	collect := func(workers int) outputs {
		s := NewSuite(workersConfig(workers))
		t4, err := s.TableIV()
		if err != nil {
			t.Fatal(err)
		}
		f5, err := s.Fig5()
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := s.DynamicTable()
		if err != nil {
			t.Fatal(err)
		}
		return outputs{table4: t4.Rows, fig5: f5.Rows, dyn: dyn.Rows}
	}
	serial := collect(1)
	parallel := collect(4)
	if !reflect.DeepEqual(serial.table4, parallel.table4) {
		t.Fatal("table4 rows diverge between Workers=1 and Workers=4")
	}
	if !reflect.DeepEqual(serial.fig5, parallel.fig5) {
		t.Fatal("fig5 rows diverge between Workers=1 and Workers=4")
	}
	if !reflect.DeepEqual(serial.dyn, parallel.dyn) {
		t.Fatal("dynamic table rows diverge between Workers=1 and Workers=4")
	}
}

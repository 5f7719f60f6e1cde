package predcache

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// forms is the table every memo case runs against: a private memo (a
// one-shard Shared behind a single handle, what one policy that wants a
// memo of its own installs), and a handle onto a four-shard Shared.
var forms = []struct {
	name   string
	handle func(Options) *Handle
}{
	{"private", func(opt Options) *Handle { return NewShared(opt, 1).Handle() }},
	{"shared", func(opt Options) *Handle { return NewShared(opt, 4).Handle() }},
}

func forEachForm(t *testing.T, run func(t *testing.T, handle func(Options) *Handle)) {
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) { run(t, f.handle) })
	}
}

// totals returns the whole Shared's inversion traffic behind h.
func totals(h *Handle) Stats {
	inv, _ := h.shared.Stats()
	return inv
}

// evalInvert stands in for the Newton inversion: a pure function of both
// vectors that allocates its results.
func evalInvert(a, b []float64) ([]float64, []float64, bool) {
	sa, sb := 0.0, 0.0
	for _, x := range a {
		sa += x
	}
	for _, x := range b {
		sb += x
	}
	return []float64{sa, float64(len(a))}, []float64{sa * sb, float64(len(b))}, true
}

// counted wraps evalInvert with a call counter.
func counted(calls *int) InvertFn {
	return func(a, b []float64) ([]float64, []float64, bool) {
		*calls++
		return evalInvert(a, b)
	}
}

// TestPairCacheHitsAndValues checks the exact-key contract on the ordered
// (a, b) vector pair an inversion is keyed by: a repeat hits with the same
// values, while swapped arguments and a one-ulp perturbation miss.
func TestPairCacheHitsAndValues(t *testing.T) {
	forEachForm(t, func(t *testing.T, handle func(Options) *Handle) {
		h := handle(Options{})
		a := []float64{0.3, 0.5, 0.2}
		b := []float64{0.1, 0.1, 0.8}
		calls := 0
		fn := counted(&calls)

		ca1, cb1, _ := h.Invert(a, b, fn)
		ca2, cb2, _ := h.Invert(a, b, fn)
		if ca1[0] != ca2[0] || cb1[0] != cb2[0] {
			t.Fatalf("cached values %v %v != fresh %v %v", ca2, cb2, ca1, cb1)
		}
		if calls != 1 {
			t.Fatalf("fn called %d times for two identical lookups", calls)
		}
		if s, _ := h.Stats(); s.Hits != 1 || s.Misses != 1 {
			t.Fatalf("stats %+v, want 1 hit 1 miss", s)
		}
		if s := totals(h); s.Hits != 1 || s.Misses != 1 {
			t.Fatalf("whole-cache stats %+v, want 1 hit 1 miss", s)
		}
		// Order matters: (b, a) is a distinct key.
		h.Invert(b, a, fn)
		if calls != 2 {
			t.Fatalf("swapped arguments did not miss (calls=%d)", calls)
		}
		// A one-ulp perturbation must miss.
		a2 := append([]float64(nil), a...)
		a2[0] = math.Nextafter(a2[0], 1)
		h.Invert(a2, b, fn)
		if calls != 3 {
			t.Fatal("one-ulp perturbation hit the exact-key cache")
		}
		if n := h.shared.Entries(); n != 3 {
			t.Fatalf("%d entries, want 3", n)
		}
	})
}

// TestPairCacheReset overflows an 8-entry cache — in the shared form, 2
// entries in each of 4 shards — and checks that resets keep every store
// within its bound without losing correctness.
func TestPairCacheReset(t *testing.T) {
	forEachForm(t, func(t *testing.T, handle func(Options) *Handle) {
		h := handle(Options{MaxEntries: 8})
		for i := range 64 {
			if ca, _, _ := h.Invert([]float64{float64(i)}, []float64{1}, evalInvert); ca[0] != float64(i) {
				t.Fatalf("wrong value %v for key %d", ca, i)
			}
		}
		if s := totals(h); s.Resets == 0 {
			t.Fatalf("no reset after 64 inserts into an 8-entry cache: %+v", s)
		}
		if n := h.shared.Entries(); n > 8 {
			t.Fatalf("%d entries exceed the 8-entry bound", n)
		}
		// Values stay correct across resets.
		if ca, _, _ := h.Invert([]float64{3}, []float64{1}, evalInvert); ca[0] != 3 {
			t.Fatalf("post-reset value %v", ca)
		}
	})
}

func TestInvertCacheSharesResults(t *testing.T) {
	forEachForm(t, func(t *testing.T, handle func(Options) *Handle) {
		h := handle(Options{})
		calls := 0
		fn := func(a, b []float64) ([]float64, []float64, bool) {
			calls++
			return []float64{a[0] * 2}, []float64{b[0] * 2}, true
		}
		a, b := []float64{1.5}, []float64{2.5}
		ca1, cb1, conv1 := h.Invert(a, b, fn)
		ca2, cb2, conv2 := h.Invert(a, b, fn)
		if calls != 1 {
			t.Fatalf("fn called %d times", calls)
		}
		if !conv1 || !conv2 {
			t.Fatal("converged flag lost")
		}
		if &ca1[0] != &ca2[0] || &cb1[0] != &cb2[0] {
			t.Fatal("hit did not return the shared cached slices")
		}
		if ca1[0] != 3 || cb1[0] != 5 {
			t.Fatalf("cached values %v %v", ca1, cb1)
		}
		// A second handle hits entries the first stored — the point of
		// sharing — while keeping its own local stats.
		h2 := h.shared.Handle()
		if ca3, _, _ := h2.Invert(a, b, fn); calls != 1 || &ca3[0] != &ca1[0] {
			t.Fatal("second handle missed an entry the first handle stored")
		}
		if st, _ := h2.Stats(); st.Hits != 1 || st.Misses != 0 {
			t.Fatalf("handle-local stats %+v, want 1 hit 0 misses", st)
		}
		if inv, _ := h.shared.Stats(); inv.Hits != 2 || inv.Misses != 1 {
			t.Fatalf("shared stats %+v, want 2 hits 1 miss", inv)
		}
		if ei := h2.shared.Entries(); ei != 1 {
			t.Fatalf("%d shared inversion entries, want 1", ei)
		}
	})
}

func TestKeySeparatesSplits(t *testing.T) {
	// (a=[x], b=[y,z]) and (a=[x,y], b=[z]) must not collide: the length
	// prefix disambiguates the split.
	forEachForm(t, func(t *testing.T, handle func(Options) *Handle) {
		h := handle(Options{})
		calls := 0
		fn := counted(&calls)
		ca1, _, _ := h.Invert([]float64{1}, []float64{2, 3}, fn)
		ca2, _, _ := h.Invert([]float64{1, 2}, []float64{3}, fn)
		if calls != 2 {
			t.Fatal("split ambiguity: second lookup hit the first key")
		}
		if ca1[1] == ca2[1] {
			t.Fatalf("values collided: %v %v", ca1, ca2)
		}
	})
}

func TestSharedShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := NewShared(Options{}, tc.in).NumShards(); got != tc.want {
			t.Errorf("NewShared(shards=%d).NumShards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestSharedShardStress hammers one shared cache from many goroutines over
// an overlapping key set — the -race gate for the concurrent path — and
// checks every returned value is the pure function's value and the summed
// stats account for every lookup.
func TestSharedShardStress(t *testing.T) {
	s := NewShared(Options{MaxEntries: 256}, 8)
	const goroutines = 8
	const perG = 2000
	const keys = 97 // overlapping working set, coprime with goroutines
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.Handle()
			invFn := func(a, b []float64) ([]float64, []float64, bool) {
				return []float64{a[0] * 2}, []float64{b[0] * 3}, true
			}
			for i := range perG {
				k := float64((g*perG + i) % keys)
				a, b := []float64{k}, []float64{k + 1}
				ca, cb, conv := h.Invert(a, b, invFn)
				if !conv || ca[0] != k*2 || cb[0] != (k+1)*3 {
					errc <- fmt.Errorf("wrong cached inversion for key %v under concurrency", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	inv, _ := s.Stats()
	if total := uint64(goroutines * perG); inv.Hits+inv.Misses != total {
		t.Fatalf("stats do not account for all traffic: %+v, want %d lookups", inv, total)
	}
	if inv.Hits == 0 {
		t.Fatal("overlapping key set produced no hits")
	}
}

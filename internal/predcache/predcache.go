// Package predcache memoizes the SYNPA policy's per-quantum model
// evaluations — ST-vector inversions (core.Model.Invert), pairwise
// degradation predictions (core.Model.PairDegradation) and whole Blossom
// matchings — behind keys built from the bit patterns of the inputs.
//
// # Why a memo layer
//
// The policy re-runs the inversion and the full pairwise prediction matrix
// every scheduling quantum even though application behaviour barely moves
// between quanta: dynamic runs re-invoke the policy off-quantum with the
// same samples, hysteresis holds placements (and therefore co-runner sets)
// stable for long stretches, and the grouping cost matrix prices the same
// pairs across consecutive quanta. The memo turns each repeated
// evaluation into a hash lookup.
//
// # Bit-identity
//
// A key is the exact 64-bit IEEE pattern of every input component: a hit
// therefore implies the inputs are bit-identical to an earlier call, and
// because the memoized functions are pure and deterministic, the memoized
// result is bit-identical to what a fresh evaluation would return. Cached
// runs are bit-identical to uncached runs *by construction* — no
// tolerance argument is needed.
//
// # Structure
//
// One store, memo[V], holds every memoized function's entries: the map,
// the deterministic full clear at the entry cap and the traffic counts.
// A Handle is one caller's view of three such stores (inversions, pair
// predictions, matchings) and builds their keys. A private Handle (New)
// owns its stores and never locks or hashes; a Handle derived from a
// Shared keeps its matching store private and looks inversions and pair
// predictions up in the Shared's locked shards.
//
// # Ownership
//
// Result slices returned by Handle.Invert are owned by the memo and
// shared between hits: callers must copy before mutating (the SYNPA policy
// copies into its reusable estimate matrix before smoothing).
package predcache

import (
	"encoding/binary"
	"math"
	"sync"
)

// DefaultMaxEntries bounds each store's entry count; on overflow the store
// resets with a deterministic full clear (no LRU bookkeeping on the hot
// path, and a reset changes only speed, never results).
const DefaultMaxEntries = 1 << 15

// Options tune a memo; the zero value gives the production defaults.
type Options struct {
	// Disabled turns the memo into a pass-through.
	Disabled bool
	// MaxEntries bounds each store; zero selects DefaultMaxEntries.
	MaxEntries int
}

func (o Options) maxEntries() int {
	if o.MaxEntries <= 0 {
		return DefaultMaxEntries
	}
	return o.MaxEntries
}

// Stats counts memo traffic.
type Stats struct {
	Hits, Misses uint64
	// Resets counts deterministic full clears on MaxEntries overflow.
	Resets uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any traffic.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// outcome is what one get did: hit, miss, or miss that reset the store.
type outcome uint8

const (
	hit outcome = iota
	miss
	missReset
)

func (s *Stats) count(o outcome) {
	switch o {
	case hit:
		s.Hits++
	case miss:
		s.Misses++
	case missReset:
		s.Misses++
		s.Resets++
	}
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Resets += o.Resets
}

// memo is the one exact-key get-or-compute store. A private store
// (locked false) is touched by one goroutine and never takes mu; a
// Shared's shards set locked and serialise on mu.
type memo[V any] struct {
	mu     sync.Mutex
	locked bool
	m      map[string]V
	max    int
	stats  Stats
}

func newMemo[V any](max int, locked bool) *memo[V] {
	return &memo[V]{m: make(map[string]V), max: max, locked: locked}
}

func (c *memo[V]) lock() {
	if c.locked {
		c.mu.Lock()
	}
}

func (c *memo[V]) unlock() {
	if c.locked {
		c.mu.Unlock()
	}
}

// get returns the value stored under key, or computes, stores and returns
// it on a miss; an error from compute is returned and nothing is stored.
// compute runs outside the lock, so the expensive Newton inversions never
// serialise on a shard: two goroutines racing on one cold key may both
// compute, but they evaluate a pure function on bit-identical inputs, so
// either store publishes the same bits.
func (c *memo[V]) get(key []byte, compute func() (V, error)) (V, outcome, error) {
	c.lock()
	if v, ok := c.m[string(key)]; ok {
		c.stats.Hits++
		c.unlock()
		return v, hit, nil
	}
	c.stats.Misses++
	c.unlock()
	v, err := compute()
	if err != nil {
		return v, miss, err
	}
	o := miss
	c.lock()
	if len(c.m) >= c.max {
		// A racing caller may have stored key meanwhile; overwriting it
		// then needs no room.
		if _, ok := c.m[string(key)]; !ok {
			c.m = make(map[string]V)
			c.stats.Resets++
			o = missReset
		}
	}
	c.m[string(key)] = v
	c.unlock()
	return v, o, nil
}

// snapshot returns the store's traffic counts and resident entry count.
func (c *memo[V]) snapshot() (Stats, int) {
	c.lock()
	defer c.unlock()
	return c.stats, len(c.m)
}

// appendKey appends the exact bit signature of v to key.
func appendKey(key []byte, v []float64) []byte {
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		key = append(key, buf[:]...)
	}
	return key
}

// pairKey builds the key for an ordered vector pair into dst. The length
// prefix separates (a, b) splits unambiguously.
func pairKey(dst []byte, a, b []float64) []byte {
	dst = append(dst[:0], byte(len(a)))
	dst = appendKey(dst, a)
	return appendKey(dst, b)
}

// matchKey builds the key for a symmetric weight matrix whose first n
// vertices are real applications: the vertex count, n, and the bit
// signature of the strict upper triangle (the matcher reads nothing else —
// the diagonal is ignored and the lower triangle mirrors the upper).
func matchKey(dst []byte, w [][]float64, n int) []byte {
	dst = append(dst[:0], byte(len(w)))
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := range w {
		dst = appendKey(dst, w[i][i+1:])
	}
	return dst
}

// InvertFn evaluates the inversion being memoized.
type InvertFn func(a, b []float64) (ca, cb []float64, converged bool)

// PairFn evaluates the pair function being memoized.
type PairFn func(a, b []float64) float64

// MatchFn evaluates the matching being memoized on the graph w whose first
// n vertices are real applications.
type MatchFn func(w [][]float64, n int) ([]int, error)

type invertEntry struct {
	a, b      []float64
	converged bool
}

// Handle is one caller's memo: the inversion, pair-prediction and
// matching stores plus the key scratch and this caller's traffic counts.
// Not safe for concurrent use — hold one per goroutine (the SYNPA policy
// keeps one per request arena); a Shared behind it is.
type Handle struct {
	disabled bool
	// shared, when set, holds the inversion and pair entries; inv and
	// pair are then nil.
	shared              *Shared
	inv                 *memo[invertEntry]
	pair                *memo[float64]
	mch                 *memo[[]int]
	key                 []byte
	invStats, pairStats Stats
}

// New builds a private handle: stores owned by the handle, never locked,
// keys never hashed beyond the map's own.
func New(opt Options) *Handle {
	h := &Handle{disabled: opt.Disabled}
	if !opt.Disabled {
		h.inv = newMemo[invertEntry](opt.maxEntries(), false)
		h.pair = newMemo[float64](opt.maxEntries(), false)
		h.mch = newMemo[[]int](opt.maxEntries(), false)
	}
	return h
}

// Invert returns fn(a, b), memoized. The returned slices are shared
// across hits (and, with a Shared, across goroutines) and must not be
// mutated.
func (h *Handle) Invert(a, b []float64, fn InvertFn) ([]float64, []float64, bool) {
	if h.disabled {
		return fn(a, b)
	}
	h.key = pairKey(h.key, a, b)
	store := h.inv
	if h.shared != nil {
		store = &h.shared.inv[h.shared.shard(h.key)]
	}
	e, o, _ := store.get(h.key, func() (invertEntry, error) {
		ca, cb, conv := fn(a, b)
		return invertEntry{a: ca, b: cb, converged: conv}, nil
	})
	h.invStats.count(o)
	return e.a, e.b, e.converged
}

// Pair returns fn(a, b), memoized.
func (h *Handle) Pair(a, b []float64, fn PairFn) float64 {
	if h.disabled {
		return fn(a, b)
	}
	h.key = pairKey(h.key, a, b)
	store := h.pair
	if h.shared != nil {
		store = &h.shared.pair[h.shared.shard(h.key)]
	}
	v, o, _ := store.get(h.key, func() (float64, error) { return fn(a, b), nil })
	h.pairStats.count(o)
	return v
}

// Match returns fn(w, n), memoized in the handle's private store whatever
// backs the other two: matchings are machine-local decisions keyed by
// whole matrices, so sharing them would buy little and cost lock traffic.
// The returned slice is a fresh copy owned by the caller. Errors are
// passed through uncached (the policy's weight matrices are sanitized and
// can never produce one).
func (h *Handle) Match(w [][]float64, n int, fn MatchFn) ([]int, error) {
	if h.disabled {
		return fn(w, n)
	}
	h.key = matchKey(h.key, w, n)
	mate, _, err := h.mch.get(h.key, func() ([]int, error) { return fn(w, n) })
	if err != nil {
		return mate, err
	}
	return append([]int(nil), mate...), nil
}

// Stats returns this handle's inversion and pair-prediction traffic (the
// whole cache's, for a Shared, are on Shared.Stats).
func (h *Handle) Stats() (invert, pair Stats) { return h.invStats, h.pairStats }

// Entries returns the resident inversion and pair entry counts — the
// whole Shared's when the handle is backed by one, since entries are
// global there by design.
func (h *Handle) Entries() (invert, pair int) {
	switch {
	case h.shared != nil:
		return h.shared.Entries()
	case h.disabled:
		return 0, 0
	}
	_, invert = h.inv.snapshot()
	_, pair = h.pair.snapshot()
	return invert, pair
}

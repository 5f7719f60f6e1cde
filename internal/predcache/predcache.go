// Package predcache memoizes the SYNPA policy's per-quantum ST-vector
// inversion (core.Model.Invert) behind keys built from the bit patterns
// of its inputs.
//
// # Why a memo layer
//
// The inversion is the one model evaluation that costs more than a
// lookup. On a 2-CPU Xeon host it is a Newton solve of about 15 µs per
// application, against about 0.4 µs of key building, hashing and storing
// on a miss. It pays when the same co-runner samples come back: dynamic
// runs re-invoke the policy off-quantum with unchanged samples, and a
// placement server answers repeated queries (perfbench's synpad-loop
// replays recorded ones). Closed simulated runs never repeat an input and
// miss every time, for about 3% more than the bare inversion.
//
// The rest of the pipeline is not memoized. A pair's degradation
// prediction (Eq. 1) is about 20 ns of arithmetic, less than a memo hit
// (55 ns private, 165 ns shared); a miss costs 410–480 ns and one
// allocation, and traced perfbench runs hit 0 pair lookups in paper-suite
// and smt4-suite and 0.17% in fleet-churn. A whole SMT2 matching at 8
// vertices solves in about 2 µs, a miss costs about 3.6 µs, and a whole
// matrix repeats only in replayed queries.
//
// # Bit-identity
//
// A key is the exact 64-bit IEEE pattern of every input component: a hit
// therefore implies the inputs are bit-identical to an earlier call, and
// because the inversion is pure and deterministic, the memoized result is
// bit-identical to what a fresh evaluation would return. Cached runs are
// bit-identical to uncached runs *by construction* — no tolerance
// argument is needed.
//
// # Structure
//
// One store, memo, holds the entries: the map, the deterministic full
// clear at the entry cap and the traffic counts. A Handle is one caller's
// view of a store and builds its keys. A private Handle (New) owns its
// store and never locks or hashes; a Handle derived from a Shared looks
// inversions up in the Shared's locked shards.
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
type memo struct {
	mu     sync.Mutex
	locked bool
	m      map[string]invertEntry
	max    int
	stats  Stats
}

func (c *memo) lock() {
	if c.locked {
		c.mu.Lock()
	}
}

func (c *memo) unlock() {
	if c.locked {
		c.mu.Unlock()
	}
}

// get returns the entry stored under key, or evaluates fn(a, b), stores
// and returns it on a miss. fn runs outside the lock, so the expensive
// Newton inversions never serialise on a shard: two goroutines racing on
// one cold key may both compute, but they evaluate a pure function on
// bit-identical inputs, so either store publishes the same bits.
func (c *memo) get(key []byte, a, b []float64, fn InvertFn) (invertEntry, outcome) {
	c.lock()
	if e, ok := c.m[string(key)]; ok {
		c.stats.Hits++
		c.unlock()
		return e, hit
	}
	c.stats.Misses++
	c.unlock()
	var e invertEntry
	e.a, e.b, e.converged = fn(a, b)
	o := miss
	c.lock()
	if len(c.m) >= c.max {
		// A racing caller may have stored key meanwhile; overwriting it
		// then needs no room.
		if _, ok := c.m[string(key)]; !ok {
			c.m = make(map[string]invertEntry)
			c.stats.Resets++
			o = missReset
		}
	}
	c.m[string(key)] = e
	c.unlock()
	return e, o
}

// snapshot returns the store's traffic counts and resident entry count.
func (c *memo) snapshot() (Stats, int) {
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

// InvertFn evaluates the inversion being memoized.
type InvertFn func(a, b []float64) (ca, cb []float64, converged bool)

type invertEntry struct {
	a, b      []float64
	converged bool
}

// Handle is one caller's memo: the inversion store plus the key scratch
// and this caller's traffic counts. Not safe for concurrent use — hold
// one per goroutine (the SYNPA policy keeps one per request arena); a
// Shared behind it is.
type Handle struct {
	disabled bool
	// shared, when set, holds the entries; inv is then nil.
	shared *Shared
	inv    *memo
	key    []byte
	stats  Stats
}

// New builds a private handle: a store owned by the handle, never locked,
// keys never hashed beyond the map's own.
func New(opt Options) *Handle {
	h := &Handle{disabled: opt.Disabled}
	if !opt.Disabled {
		h.inv = &memo{m: make(map[string]invertEntry), max: opt.maxEntries()}
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
	e, o := store.get(h.key, a, b, fn)
	h.stats.count(o)
	return e.a, e.b, e.converged
}

// Stats returns this handle's inversion traffic (the whole cache's, for a
// Shared, are on Shared.Stats). pair is always zero: pair predictions are
// not memoized, and the result is kept for callers that read both.
func (h *Handle) Stats() (invert, pair Stats) { return h.stats, Stats{} }

// Entries returns the resident inversion entry count — the whole
// Shared's when the handle is backed by one, since entries are global
// there by design.
func (h *Handle) Entries() int {
	switch {
	case h.shared != nil:
		return h.shared.Entries()
	case h.disabled:
		return 0
	}
	_, n := h.inv.snapshot()
	return n
}

// Shared is the concurrent form of the memo layer: one set of inversion
// entries serving many goroutines — every machine in a fleet, or every
// in-flight request on the reentrant policy path — instead of each
// warming its own cold private store.
//
// # Bit-identity under concurrent sharing
//
// The package-comment argument extends unchanged: a hit implies the inputs
// are bit-identical to an earlier call, and the inversion is pure, so
// every value a shard ever returns for a key is the bit-identical value a
// fresh evaluation would produce. Concurrency changes only *which*
// calls hit (see memo.get): simulation outputs cannot depend on the
// schedule; only the hit/miss *counters* (and reset timing) are
// schedule-dependent, which is why the engines exclude shared-cache
// counter deltas from worker-count-invariant traces.
//
// # Structure
//
// Keys hash (FNV-1a over the key bytes) onto a power-of-two array of the
// package's one store; each shard locks independently and clears at
// MaxEntries/shards. Callers do not use a Shared directly: each
// request/goroutine derives a Handle, which carries the per-request key
// scratch and its own Stats so per-caller traffic stays observable.
package predcache

// DefaultShards is the shard count when NewShared is given 0 — enough to
// keep lock contention negligible at fleet worker counts without bloating
// the per-shard reset granularity.
const DefaultShards = 16

// Shared is an N-shard concurrent memo of the inversion. Safe for use
// from any number of goroutines; derive per-goroutine handles with Handle.
type Shared struct {
	opt  Options
	mask uint64
	inv  []memo
}

// NewShared builds a shared cache with the given options and shard count
// (rounded up to a power of two; 0 selects DefaultShards). Options.
// MaxEntries bounds the whole cache; each shard clears independently at
// MaxEntries/shards.
func NewShared(opt Options, shards int) *Shared {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Shared{opt: opt, mask: uint64(n - 1)}
	if opt.Disabled {
		return s
	}
	per := max(opt.maxEntries()/n, 1)
	s.inv = make([]memo, n)
	for i := range n {
		s.inv[i] = memo{m: make(map[string]invertEntry), max: per, locked: true}
	}
	return s
}

// NumShards returns the (power-of-two) shard count, 0 when disabled.
func (s *Shared) NumShards() int { return len(s.inv) }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shard selects the key's home shard by FNV-1a over the key bytes.
func (s *Shared) shard(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h & s.mask
}

// Handle derives a per-goroutine handle onto the shared shards.
func (s *Shared) Handle() *Handle {
	return &Handle{disabled: s.opt.Disabled, shared: s}
}

// Stats sums the per-shard inversion traffic counters; pair is always
// zero, as on Handle.Stats. Callable concurrently with traffic; a snapshot
// taken mid-run may straddle in-flight lookups.
func (s *Shared) Stats() (invert, pair Stats) {
	for i := range s.inv {
		st, _ := s.inv[i].snapshot()
		invert.add(st)
	}
	return invert, Stats{}
}

// Entries counts the currently resident entries across all shards.
func (s *Shared) Entries() int {
	total := 0
	for i := range s.inv {
		_, n := s.inv[i].snapshot()
		total += n
	}
	return total
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"synpa/internal/core"
	"synpa/synpa"
)

// span is one interval the benchmark timed around a call into a layer.
// Parent links a span to the one that caused it (0 for a root); a synpad
// request's client span ID travels to the server in a header, so the
// handler span's Parent is the request's identifier.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps a run's spans in memory until the run ends. It is safe for
// concurrent use: fleet workers and synpad clients record from several
// goroutines.
type spanLog struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) newID() int64 { return l.ids.Add(1) }

func (l *spanLog) record(name string, id, parent int64, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// total sums the durations of the spans with the given name.
func (l *spanLog) total(name string) time.Duration {
	var d time.Duration
	l.each(name, func(s span) { d += s.dur() })
	return d
}

// durations lists the durations of the spans with the given name.
func (l *spanLog) durations(name string) []time.Duration {
	var out []time.Duration
	l.each(name, func(s span) { out = append(out, s.dur()) })
	return out
}

func (l *spanLog) each(name string, fn func(span)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.Name == name {
			fn(s)
		}
	}
}

// writeJSONL writes every span, one JSON object a line, to dir/<file>.
func (l *spanLog) writeJSONL(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// timedPolicy is the SYNPA policy with its Place calls timed from outside.
// It embeds *core.Policy and overrides only Place, so SetSharedCache,
// SharedCache, CacheStats and CacheEntries still reach machine and fleet,
// which find them by interface assertion: a wrapper hiding them would
// change the program (fleet would report no predcache traffic, and a
// shared cache would never be installed).
//
// Every Place latency is kept; with a span log (traced runs) each call is
// also recorded as a core.Place span under the given parent. A non-nil
// after runs after each timed call.
type timedPolicy struct {
	*core.Policy
	lat    []time.Duration
	log    *spanLog
	parent int64
	after  func()
}

func newTimedPolicy(sys *synpa.System, m *synpa.Model, log *spanLog, parent int64) *timedPolicy {
	return &timedPolicy{Policy: sys.SYNPAPolicy(m).(*core.Policy), log: log, parent: parent}
}

// Place times the embedded policy's decision.
func (p *timedPolicy) Place(st *synpa.QuantumState) synpa.Placement {
	t0 := time.Now()
	pl := p.Policy.Place(st)
	t1 := time.Now()
	p.lat = append(p.lat, t1.Sub(t0))
	if p.log != nil {
		p.log.record("core.Place", p.log.newID(), p.parent, t0, t1)
	}
	if p.after != nil {
		p.after()
	}
	return pl
}

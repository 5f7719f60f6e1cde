package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestPoissonStreamMatchesBatch pins the Poisson generator's draws: the
// lazy stream and the materialised trace must both reproduce recorded
// FNV-64a digests of two 500-entry sequences, so the scenarios built on
// the generator cannot drift with it.
func TestPoissonStreamMatchesBatch(t *testing.T) {
	pool := []string{"mcf", "leela_r", "lbm_r", "gobmk"}
	mix := []ClassShare{
		{Priority: 2, Weight: 4, Share: 0.2, Work: 0.05},
		{Priority: 0, Weight: 1, Share: 0.8, Work: 0.2},
	}
	for _, tc := range []struct {
		name string
		mix  []ClassShare
		want uint64
	}{
		{"plain", nil, 0x73af7a6713b3fed2},
		{"mixed", mix, 0xa20f43e5c66f5ea1},
	} {
		batch := PoissonTraceMixed(tc.name, 77, pool, 500, 30000, 0.1, tc.mix)
		stream := PoissonStreamMixed(tc.name, 77, pool, 500, 30000, 0.1, tc.mix)
		got := Collect(stream, 0)
		for _, tr := range []struct {
			form    string
			entries []TraceEntry
		}{{"batch", batch.Entries}, {"stream", got.Entries}} {
			if len(tr.entries) != 500 {
				t.Fatalf("%s %s: %d entries, want 500", tc.name, tr.form, len(tr.entries))
			}
			if d := entriesDigest(tr.entries); d != tc.want {
				t.Fatalf("%s %s: digest %#x, want %#x", tc.name, tr.form, d, tc.want)
			}
		}
		if _, ok := stream.Next(); ok {
			t.Fatalf("%s: stream yields entries past n", tc.name)
		}
		if err := stream.Err(); err != nil {
			t.Fatalf("%s: stream error: %v", tc.name, err)
		}
	}
}

// entriesDigest is the FNV-64a hash of every entry field: the app name and
// a NUL, then ArriveAt, the bits of Work, Priority and the bits of Weight
// as little-endian uint64s.
func entriesDigest(entries []TraceEntry) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range entries {
		h.Write([]byte(e.App))
		h.Write([]byte{0})
		for _, v := range []uint64{e.ArriveAt, math.Float64bits(e.Work), uint64(e.Priority), math.Float64bits(e.Weight)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestPoissonStreamEmpty mirrors PoissonTrace's empty-input behaviour.
func TestPoissonStreamEmpty(t *testing.T) {
	for _, s := range []TraceStream{
		PoissonStream("none", 1, nil, 10, 1000, 1),
		PoissonStream("none", 1, []string{"mcf"}, 0, 1000, 1),
	} {
		if _, ok := s.Next(); ok {
			t.Fatal("empty stream must yield nothing")
		}
	}
}

// TestStreamTraceOrdersArrivals: StreamTrace visits entries by arrival
// cycle with ties in trace order — RunDynamic's sort.
func TestStreamTraceOrdersArrivals(t *testing.T) {
	tr := Trace{Name: "x", Entries: []TraceEntry{
		{App: "mcf", ArriveAt: 500},
		{App: "leela_r", ArriveAt: 0},
		{App: "gobmk", ArriveAt: 500},
		{App: "lbm_r", ArriveAt: 100},
	}}
	got := Collect(StreamTrace(tr), 0)
	want := []string{"leela_r", "lbm_r", "mcf", "gobmk"}
	for i, name := range want {
		if got.Entries[i].App != name {
			t.Fatalf("position %d: got %s, want %s (order %v)", i, got.Entries[i].App, name, got.Names())
		}
	}
	// The source trace must not be reordered.
	if tr.Entries[0].App != "mcf" {
		t.Fatal("StreamTrace mutated the source trace")
	}
}

func TestStreamFunc(t *testing.T) {
	s := StreamFunc("gen", func(i int) (TraceEntry, bool) {
		if i >= 3 {
			return TraceEntry{}, false
		}
		return TraceEntry{App: "mcf", ArriveAt: uint64(i) * 100}, true
	})
	got := Collect(s, 0)
	if len(got.Entries) != 3 || got.Entries[2].ArriveAt != 200 {
		t.Fatalf("unexpected entries: %+v", got.Entries)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted StreamFunc must stay exhausted")
	}
}

func TestEntryCheck(t *testing.T) {
	good := TraceEntry{App: "mcf", Work: 1, Priority: 1, Weight: 2}
	if err := good.Check(); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	for _, bad := range []TraceEntry{
		{App: "no-such-app"},
		{App: "mcf", Work: -1},
		{App: "mcf", Priority: -1},
		{App: "mcf", Weight: -2},
	} {
		if err := bad.Check(); err == nil {
			t.Errorf("entry %+v must fail Check", bad)
		}
	}
}

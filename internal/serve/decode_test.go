package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/obs"
	"synpa/internal/pmu"
	"synpa/internal/smtcore"
)

// jsonDecode is the reference decoder decodeRequest replaces: encoding/json
// with DisallowUnknownFields, reading the first value of body. It returns
// the decoder, whose InputOffset marks the end of that value.
func jsonDecode(body []byte, q *PlaceRequest) (*json.Decoder, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec, dec.Decode(q)
}

// fieldKeys are the exact keys of PlaceRequest, read from its struct tags.
func fieldKeys() map[string]bool {
	keys := map[string]bool{}
	t := reflect.TypeFor[PlaceRequest]()
	for i := range t.NumField() {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		keys[`"`+name+`"`] = true
	}
	return keys
}

// stricter reports whether body, which encoding/json accepts and whose
// first value ends at end, falls in a class decodeRequest rejects by
// design: data after the object, or a top-level key not spelled exactly as
// a struct tag (a case variant or an escaped key).
func stricter(body []byte, end int64) bool {
	if len(bytes.TrimLeft(body[end:], " \t\r\n")) > 0 {
		return true
	}
	keys := fieldKeys()
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false // null: no keys
	}
	for dec.More() {
		from := dec.InputOffset()
		if _, err := dec.Token(); err != nil {
			return false
		}
		raw := bytes.TrimLeft(body[from:dec.InputOffset()], " \t\r\n,")
		if !keys[string(raw)] {
			return true
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
	}
	return false
}

// FuzzPlaceRequest holds decodeRequest to encoding/json: whatever it
// accepts, encoding/json accepts and decodes to a DeepEqual request; of
// what encoding/json accepts, it rejects exactly the two stricter classes.
// Every accepted request must then either fail PlaceOne or place validly
// with finite degradations.
func FuzzPlaceRequest(f *testing.F) {
	p := core.MustPolicy(core.PaperCoefficients(), core.PolicyOptions{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want PlaceRequest
		gotErr := decodeRequest(body, &got)
		dec, wantErr := jsonDecode(body, &want)
		switch {
		case gotErr == nil && wantErr != nil:
			t.Fatalf("decodeRequest accepts what encoding/json rejects (%v)", wantErr)
		case gotErr == nil && stricter(body, dec.InputOffset()):
			t.Fatal("decodeRequest accepts a misspelled key or data after the object")
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decodeRequest and encoding/json disagree\ngot:  %+v\nwant: %+v", got, want)
		case gotErr != nil && wantErr == nil && !stricter(body, dec.InputOffset()):
			t.Fatalf("decodeRequest rejects what encoding/json accepts, outside the stricter classes: %v", gotErr)
		}
		if gotErr != nil {
			return
		}

		resp, err := PlaceOne(p, p.NewArena(), &got)
		if err != nil {
			return
		}
		level := got.SMTLevel
		if level == 0 {
			level = smtcore.DefaultSMTLevel
		}
		if len(resp.Placement) != got.NumApps {
			t.Fatalf("%d placements for %d apps", len(resp.Placement), got.NumApps)
		}
		if err := machine.Placement(resp.Placement).Validate(got.NumCores, level); err != nil {
			t.Fatalf("invalid placement %v: %v", resp.Placement, err)
		}
		for i, g := range resp.Degradations {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("degradation[%d] = %v", i, g)
			}
		}
	})
}

// FuzzPlaceBatch holds /v1/place/batch to its line contract on any body:
// one answer per non-empty line (bufio.ScanLines drops a line's trailing
// CR first), each a PlaceResponse or an ErrorResponse.
func FuzzPlaceBatch(f *testing.F) {
	srv, err := New(core.PaperCoefficients(), Config{Registry: obs.NewRegistry(), BatchChunk: 3})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		want := 0
		for _, l := range bytes.Split(body, []byte("\n")) {
			if len(bytes.TrimSuffix(l, []byte("\r"))) > 0 {
				want++
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		out := rec.Body.Bytes()
		if len(out) > 0 && out[len(out)-1] != '\n' {
			t.Fatalf("answer stream does not end in a newline: %q", out)
		}
		lines := bytes.Split(out, []byte("\n"))
		lines = lines[:len(lines)-1]
		if len(lines) != want {
			t.Fatalf("%d answer lines for %d query lines", len(lines), want)
		}
		for i, l := range lines {
			var pr PlaceResponse
			var er ErrorResponse
			if strictUnmarshal(l, &pr) != nil || pr.Placement == nil {
				if strictUnmarshal(l, &er) != nil || er.Error == "" {
					t.Fatalf("line %d is neither a PlaceResponse nor an ErrorResponse: %s", i, l)
				}
			}
		}
	})
}

func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// BenchmarkDecodeRequest compares decodeRequest with the encoding/json
// decoding it replaced, on a query recorded from a dynamic SYNPA run on
// 4 cores x SMT2 (4 live apps, 14 counters each).
func BenchmarkDecodeRequest(b *testing.B) {
	body, err := os.ReadFile("testdata/place_request.json")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decodeRequest", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var q PlaceRequest
			if err := decodeRequest(body, &q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var q PlaceRequest
			if _, err := jsonDecode(body, &q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestValidateAllocatesNothing pins that Validate, including its scan for
// repeated app_ids, allocates nothing on a full 4-core SMT2 query: the
// recorded body widened to 8 live apps with distinct identities.
func TestValidateAllocatesNothing(t *testing.T) {
	body, err := os.ReadFile("testdata/place_request.json")
	if err != nil {
		t.Fatal(err)
	}
	var q PlaceRequest
	if err := decodeRequest(body, &q); err != nil {
		t.Fatal(err)
	}
	for i := q.NumApps; i < 8; i++ {
		q.AppIDs = append(q.AppIDs, q.AppIDs[i-1]+1)
		q.Prev = append(q.Prev, i%q.NumCores)
		q.Samples = append(q.Samples, q.Samples[i%q.NumCores])
		q.Priorities = append(q.Priorities, 0)
	}
	q.NumApps = 8
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = q.Validate() }); n != 0 {
		t.Fatalf("Validate allocates %v times per call", n)
	}
}

// TestRequestFromStateRoundTrip pins the wire inversion the bench and the
// differential harness rely on: state -> request -> JSON -> decodeRequest
// -> state reproduces every field and bit.
func TestRequestFromStateRoundTrip(t *testing.T) {
	st := &machine.QuantumState{
		Quantum:       3,
		NumCores:      4,
		NumApps:       5,
		AppIDs:        []int{7, 3, 9, 1, 4},
		Prev:          machine.Placement{0, 1, 2, machine.Unplaced, 3},
		Priorities:    []int{0, 1, 0, 2, 0},
		DispatchWidth: 4,
		SMTLevel:      2,
		Samples:       make([]pmu.Counters, 5),
	}
	for i := range st.Samples {
		for e := range st.Samples[i] {
			st.Samples[i][e] = uint64(i*100+e) * 0x0101010101010101 % (1 << 60)
		}
	}
	st.Samples[4][pmu.CPUCycles] = math.MaxUint64
	b, err := json.Marshal(RequestFromState(st))
	if err != nil {
		t.Fatal(err)
	}
	var back PlaceRequest
	if err := decodeRequest(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := back.state(); !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip changed the state\ngot:  %+v\nwant: %+v", got, st)
	}
}

// TestWriteJSONUnencodable pins the encode-before-header rule: a value
// that cannot be encoded answers 500 with a structured error, not 200 with
// an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	err := writeJSON(rec, http.StatusOK, PlaceResponse{Placement: []int{0}, Degradations: []float64{math.Inf(1)}})
	if err == nil {
		t.Fatal("writeJSON reported no error for an Inf degradation")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e ErrorResponse
	if strictUnmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("want a structured error body, got %q", rec.Body)
	}
}

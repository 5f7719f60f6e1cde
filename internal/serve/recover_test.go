package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"synpa/internal/core"
	"synpa/internal/obs"
)

// TestHandlerRecoversPanics drives recoverPanics around a handler that
// takes a concurrency slot and then panics, the way a placement handler
// would on a policy fault: each request must get a JSON 500 naming the
// panic and a count in synpad.panics, not a dropped connection, and the
// slot must be released, so the server, held to one request at a time,
// still answers a placement afterwards.
func TestHandlerRecoversPanics(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(core.PaperCoefficients(), Config{Registry: reg, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	boom := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.acquire(w) {
			return
		}
		defer s.releaseSlot()
		panic("handler exploded")
	}))
	for i := range 2 {
		rec := httptest.NewRecorder()
		boom.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("request %d: content type %q", i, ct)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "handler exploded") {
			t.Fatalf("request %d: body %s (%v), want an ErrorResponse naming the panic", i, rec.Body, err)
		}
	}
	if got := reg.Counter("synpad.panics").Value(); got != 2 {
		t.Fatalf("synpad.panics = %d, want 2", got)
	}

	body, err := os.ReadFile("testdata/place_request.json")
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("place after panics: status %d: %s", rec.Code, rec.Body)
	}
}

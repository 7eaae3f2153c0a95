package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/sampling/hub"
)

// TestRouterRouteParity: every id-addressed route in the daemon's table
// forwards through the router to a backend. The router lists those
// patterns by hand; a route added to the daemon but not to the router
// would fall through to the router's "/" catch-all and 404 without
// reaching any backend.
func TestRouterRouteParity(t *testing.T) {
	var mu sync.Mutex
	var got []string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Method+" "+r.URL.Path)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer backend.Close()
	logger, _ := obs.NewLogger(io.Discard, "text", "error")
	rt, err := newRouter([]string{backend.URL}, 1<<20, logger, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.handler()

	s := &server{hub: hub.New()}
	checked := 0
	for _, r := range s.routes() {
		method, path, ok := strings.Cut(r.pattern, " ")
		if !ok || !strings.Contains(path, "{id}") {
			continue
		}
		checked++
		path = strings.Replace(path, "{id}", "parity-id", 1)
		want := method + " " + path
		mu.Lock()
		got = got[:0]
		mu.Unlock()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("")))
		mu.Lock()
		forwarded := strings.Join(got, ", ")
		mu.Unlock()
		if rec.Code != http.StatusNoContent || forwarded != want {
			t.Errorf("%s (daemon route %q): router answered %d %s and forwarded [%s] — missing from the router's id routes?",
				want, r.pattern, rec.Code, strings.TrimSpace(rec.Body.String()), forwarded)
		}
	}
	if checked == 0 {
		t.Fatal("the daemon's route table has no id-addressed routes")
	}
}

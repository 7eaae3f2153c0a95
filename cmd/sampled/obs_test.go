package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/sampling/hub"
)

func getBody(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestObservabilitySurface drives a few requests through every wire
// the duration/ingest histograms watch and asserts the registry-
// rendered exposition carries the new families alongside every
// pre-existing series.
func TestObservabilitySurface(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()

	if code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/s1",
		map[string]any{"spec": "systematic:interval=10", "estimator": "aggvar"}); code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	if code, body := doJSON(t, client, http.MethodPost, srv.URL+"/v1/streams/s1/ticks",
		[]float64{1, 2, 3, 4, 5}); code != http.StatusOK {
		t.Fatalf("POST ticks: %d %s", code, body)
	}
	// Text wire.
	resp, err := client.Post(srv.URL+"/v1/streams/s1/ticks", "text/plain", strings.NewReader("6 7 8"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text POST: %d", resp.StatusCode)
	}
	// The same two wires into a comparison group: group ingest lands in
	// the same per-wire histograms as stream ingest.
	if code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/groups/g1",
		map[string]any{"specs": []string{"systematic:interval=2", "bernoulli:rate=0.5,seed=1"}}); code != http.StatusCreated {
		t.Fatalf("PUT group: %d %s", code, body)
	}
	if code, body := doJSON(t, client, http.MethodPost, srv.URL+"/v1/groups/g1/ticks",
		[]float64{1, 2, 3, 4}); code != http.StatusOK {
		t.Fatalf("POST group ticks: %d %s", code, body)
	}
	resp, err = client.Post(srv.URL+"/v1/groups/g1/ticks", "text/plain", strings.NewReader("5 6"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text group POST: %d", resp.StatusCode)
	}
	// A miss for the route="other" catch-all.
	if code, _ := getBody(t, client, srv.URL+"/no/such/route"); code != http.StatusNotFound {
		t.Fatalf("bogus route: %d, want 404", code)
	}

	_, metrics := getBody(t, client, srv.URL+"/metrics")

	for _, want := range []string{
		// Pre-obs series survive byte for byte.
		"sampled_streams 1\n",
		"sampled_ticks_total 8\n",
		"sampled_hurst_streams_estimating 1\n",
		// The flapping fix: unresolved means render as NaN instead of
		// vanishing from the exposition.
		"sampled_hurst_input_h_mean NaN\n",
		"sampled_hurst_kept_h_mean NaN\n",
		"sampled_hurst_drift_mean NaN\n",
		// New request-level families, with the static pattern as route.
		`sampled_http_request_duration_seconds_bucket{route="POST /v1/streams/{id}/ticks",le="+Inf"} 2`,
		`sampled_http_request_duration_seconds_bucket{route="PUT /v1/streams/{id}",le="+Inf"} 1`,
		`sampled_http_requests_total{route="POST /v1/streams/{id}/ticks",class="2xx"} 2`,
		`sampled_http_requests_total{route="other",class="4xx"} 1`,
		`sampled_http_request_bytes_count{route="POST /v1/streams/{id}/ticks"} 2`,
		"sampled_group_ticks_total 6\n",
		`sampled_http_requests_total{route="POST /v1/groups/{id}/ticks",class="2xx"} 2`,
		// Per-wire ingest decode histograms: one stream batch and one
		// group batch per wire.
		`sampled_ingest_decode_seconds_count{wire="json"} 2`,
		`sampled_ingest_decode_seconds_count{wire="text"} 2`,
		`sampled_ingest_batch_ticks_count{wire="json"} 2`,
		`sampled_ingest_frame_bytes_count{wire="text"} 2`,
		// Build info and runtime health.
		`sampled_build_info{version="`,
		"sampled_goroutines ",
		"sampled_heap_objects_bytes ",
		"sampled_gc_pause_seconds_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics lacks %q", want)
		}
	}
	// The whole exposition is registry-rendered: HELP precedes every
	// family exactly once.
	if strings.Count(metrics, "# HELP sampled_streams ") != 1 {
		t.Errorf("sampled_streams HELP emitted %d times", strings.Count(metrics, "# HELP sampled_streams "))
	}
}

// TestDebugEvents exercises the flight recorder endpoint: requests
// appear newest first, an error request carries its status and the
// response body as detail.
func TestDebugEvents(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()

	if code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/ok",
		map[string]any{"spec": "systematic:interval=10"}); code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	if code, _ := getBody(t, client, srv.URL+"/v1/streams/ghost/snapshot"); code != http.StatusNotFound {
		t.Fatalf("ghost snapshot: %d, want 404", code)
	}

	code, body := getBody(t, client, srv.URL+"/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events: %d", code)
	}
	var doc struct {
		Total    uint64      `json:"total"`
		Capacity int         `json:"capacity"`
		Events   []obs.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if doc.Total != 2 || len(doc.Events) != 2 {
		t.Fatalf("total=%d events=%d, want 2/2", doc.Total, len(doc.Events))
	}
	// Newest first: the failed snapshot, then the create.
	e := doc.Events[0]
	if e.Kind != "error" || e.Status != http.StatusNotFound || e.ID != "ghost" ||
		e.Route != "GET /v1/streams/{id}/snapshot" || !strings.Contains(e.Detail, "stream not found") {
		t.Fatalf("newest event = %+v", e)
	}
	if e := doc.Events[1]; e.Kind != "request" || e.Status != http.StatusCreated || e.ID != "ok" {
		t.Fatalf("older event = %+v", e)
	}
}

// TestPprofOptIn holds /debug/pprof to the -pprof flag: absent by
// default, live when enabled.
func TestPprofOptIn(t *testing.T) {
	off := httptest.NewServer(newServer(hub.New(), 0))
	defer off.Close()
	if code, _ := getBody(t, off.Client(), off.URL+"/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Fatalf("pprof without -pprof: %d, want 404", code)
	}

	on := httptest.NewServer(newServer(hub.New(), 0, withPprof(true)))
	defer on.Close()
	if code, _ := getBody(t, on.Client(), on.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof with -pprof: %d, want 200", code)
	}
}

// TestVersionFlag pins the -version fast path: print and exit clean,
// no listener.
func TestVersionFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-version"}, nil); err != nil {
		t.Fatalf("-version: %v", err)
	}
}

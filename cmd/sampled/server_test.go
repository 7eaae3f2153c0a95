package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/sampling"
	"repro/sampling/hub"
)

// heavyTailedSeries draws a Pareto(alpha=1.5) series — the paper's
// infinite-variance marginal, the regime that makes the mean hard to
// sample.
func heavyTailedSeries(seed uint64, n int) []float64 {
	rng := dist.NewRand(seed)
	p, err := dist.NewPareto(1.5, 1.0)
	if err != nil {
		panic(err)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Sample(rng)
	}
	return out
}

func doJSON(t *testing.T, client *http.Client, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestEndToEnd boots the daemon on a loopback port via the real run()
// path (flags, listener, graceful shutdown), creates one stream per
// registered technique over HTTP, ingests a heavy-tailed series in
// batches, and checks the final summaries against the batch
// Engine.Sample path — the wire must not change a single sample.
func TestEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}
	client := &http.Client{Timeout: 10 * time.Second}

	const nTicks = 5000
	series := heavyTailedSeries(42, nTicks)
	specs := map[string]string{
		"systematic": "systematic:interval=50,offset=7",
		"stratified": "stratified:interval=50,seed=11",
		"simple":     "simple:n=100,seed=5",
		"bernoulli":  "bernoulli:rate=0.02,seed=13",
		"bss":        "bss:interval=50,L=5,eps=1.0",
	}

	for name, spec := range specs {
		url := base + "/v1/streams/" + name
		if code, body := doJSON(t, client, http.MethodPut, url, map[string]any{"spec": spec}); code != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, code, body)
		}
		for off := 0; off < nTicks; off += 1000 {
			code, body := doJSON(t, client, http.MethodPost, url+"/ticks", series[off:off+1000])
			if code != http.StatusOK {
				t.Fatalf("POST %s ticks: %d %s", name, code, body)
			}
			var resp ingestResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Accepted != 1000 {
				t.Fatalf("POST %s ticks: accepted %d of 1000", name, resp.Accepted)
			}
		}

		code, body := doJSON(t, client, http.MethodGet, url+"/snapshot", nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s snapshot: %d %s", name, code, body)
		}
		var mid sampling.Summary
		if err := json.Unmarshal(body, &mid); err != nil {
			t.Fatal(err)
		}
		if mid.Seen != nTicks || mid.Finished {
			t.Errorf("%s mid-stream snapshot: seen=%d finished=%v", name, mid.Seen, mid.Finished)
		}

		code, body = doJSON(t, client, http.MethodDelete, url, nil)
		if code != http.StatusOK {
			t.Fatalf("DELETE %s: %d %s", name, code, body)
		}
		var fin finishResponse
		if err := json.Unmarshal(body, &fin); err != nil {
			t.Fatal(err)
		}

		// The batch reference: the same spec over the same series in one
		// Engine.Sample call. Identical seeds, identical Offer/Finish
		// order, so counters and the running mean must match exactly.
		ref, err := sampling.New(sampling.MustParse(spec))
		if err != nil {
			t.Fatal(err)
		}
		samples, err := ref.Sample(series)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Snapshot()
		if fin.Summary.Kept != want.Kept || fin.Summary.Seen != want.Seen ||
			fin.Summary.Qualified != want.Qualified || fin.Summary.Mean != want.Mean {
			t.Errorf("%s diverged from batch Engine.Sample:\n got kept=%d seen=%d qual=%d mean=%v\nwant kept=%d seen=%d qual=%d mean=%v",
				name, fin.Summary.Kept, fin.Summary.Seen, fin.Summary.Qualified, fin.Summary.Mean,
				want.Kept, want.Seen, want.Qualified, want.Mean)
		}
		if len(samples) != want.Kept {
			t.Errorf("%s: batch path kept %d samples but snapshot says %d", name, len(samples), want.Kept)
		}
		if !fin.Summary.Finished {
			t.Errorf("%s final summary not marked finished", name)
		}
	}

	// The daemon must drain gracefully on context cancellation.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestErrorMapping(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown technique", http.MethodPut, "/v1/streams/a", map[string]any{"spec": "warp-drive:rate=0.1"}, http.StatusBadRequest},
		{"bad spec string", http.MethodPut, "/v1/streams/a", map[string]any{"spec": ":broken"}, http.StatusBadRequest},
		{"rejected param", http.MethodPut, "/v1/streams/a", map[string]any{"spec": "systematic:interval=10,bogus=1"}, http.StatusBadRequest},
		{"unknown body field", http.MethodPut, "/v1/streams/a", map[string]any{"spec": "systematic:interval=10", "sede": 1}, http.StatusBadRequest},
		{"negative budget", http.MethodPut, "/v1/streams/a", map[string]any{"spec": "systematic:interval=10", "budget": -3}, http.StatusBadRequest},
		{"snapshot of ghost", http.MethodGet, "/v1/streams/ghost/snapshot", nil, http.StatusNotFound},
		{"ticks to ghost", http.MethodPost, "/v1/streams/ghost/ticks", []float64{1}, http.StatusNotFound},
		{"delete ghost", http.MethodDelete, "/v1/streams/ghost", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		if code, body := doJSON(t, client, tc.method, srv.URL+tc.path, tc.body); code != tc.want {
			t.Errorf("%s: got %d (%s), want %d", tc.name, code, body, tc.want)
		}
	}

	if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/a",
		map[string]any{"spec": "systematic:interval=10"}); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/a",
		map[string]any{"spec": "systematic:interval=10"}); code != http.StatusConflict {
		t.Errorf("duplicate create: got %d (%s), want 409", code, body)
	}
}

func TestTextIngestAndObjectSpec(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()

	// The spec also travels in its typed object form.
	code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/txt", map[string]any{
		"spec": map[string]any{"technique": "systematic", "params": map[string]string{"interval": "2"}},
	})
	if code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}

	resp, err := client.Post(srv.URL+"/v1/streams/txt/ticks", "text/plain",
		strings.NewReader("1 2.5 3\n4e0\t5"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var off ingestResponse
	if err := json.Unmarshal(data, &off); err != nil {
		t.Fatal(err)
	}
	if off.Accepted != 5 || off.Kept != 3 {
		t.Errorf("text ingest: %+v, want accepted=5 kept=3", off)
	}

	resp, err = client.Post(srv.URL+"/v1/streams/txt/ticks", "text/plain", strings.NewReader("1 garbage 3"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage text ingest: %d, want 400", resp.StatusCode)
	}

	// A concatenated second JSON value is a malformed request, not a
	// batch to silently drop; null and non-finite ticks would corrupt
	// the stream's running moments and must be rejected too.
	bad := []struct{ ctype, body string }{
		{"application/json", "[1,2,3] [4,5,6]"},
		{"application/json", "[1.5, null, 3]"},
		{"text/plain", "1 NaN 3"},
		{"text/plain", "1 +Inf 3"},
	}
	for _, tc := range bad {
		resp, err = client.Post(srv.URL+"/v1/streams/txt/ticks", tc.ctype, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ingest of %q (%s): %d, want 400", tc.body, tc.ctype, resp.StatusCode)
		}
	}
	// Rejected batches must not have been partially ingested.
	code, body = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams/txt/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}
	var sum sampling.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Seen != 5 {
		t.Errorf("rejected batches leaked ticks: seen=%d, want 5", sum.Seen)
	}
}

func TestListAndMetrics(t *testing.T) {
	h := hub.New()
	srv := httptest.NewServer(newServer(h, 0))
	defer srv.Close()
	client := srv.Client()

	code, body := doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"streams":[]`) {
		t.Errorf("empty list: %d %s", code, body)
	}
	for _, id := range []string{"b", "a"} {
		if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/"+id,
			map[string]any{"spec": "systematic:interval=2"}); code != http.StatusCreated {
			t.Fatalf("create %s: %d", id, code)
		}
	}
	if _, err := h.OfferBatch("a", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	code, body = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"streams":["a","b"]`) {
		t.Errorf("list: %d %s", code, body)
	}

	code, body = doJSON(t, client, http.MethodGet, srv.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, line := range []string{"sampled_streams 2", "sampled_ticks_total 4", "sampled_samples_kept_total 2", "sampled_streams_created_total 2"} {
		if !strings.Contains(string(body), line) {
			t.Errorf("metrics missing %q:\n%s", line, body)
		}
	}
}

// TestOversizedBody checks that blowing the body cap is a 413 (split
// the batch and retry), distinct from a malformed-body 400.
func TestOversizedBody(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 128))
	defer srv.Close()
	client := srv.Client()

	if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/s",
		map[string]any{"spec": "systematic:interval=2"}); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	big := make([]float64, 1000)
	for _, ctype := range []string{"application/json", "text/plain"} {
		body, err := json.Marshal(big)
		if err != nil {
			t.Fatal(err)
		}
		payload := string(body)
		if ctype == "text/plain" {
			payload = strings.Repeat("1 ", 1000)
		}
		resp, err := client.Post(srv.URL+"/v1/streams/s/ticks", ctype, strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized %s body: %d, want 413", ctype, resp.StatusCode)
		}
	}
}

// TestBudgetAndSeedOptions checks that the create body's budget caps
// kept samples and that a seed travels in the spec: a seed on a seedless
// technique is a 400, and so is the body field "seed", which no create
// body has.
func TestBudgetAndSeedOptions(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()

	code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/s", map[string]any{
		"spec": "bernoulli:rate=0.5,seed=99", "budget": 3,
	})
	if code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	series := heavyTailedSeries(7, 200)
	code, body = doJSON(t, client, http.MethodPost, srv.URL+"/v1/streams/s/ticks", series)
	if code != http.StatusOK {
		t.Fatalf("POST: %d %s", code, body)
	}
	code, body = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams/s/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("GET: %d", code)
	}
	var sum sampling.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Kept != 3 || sum.Budget != 3 {
		t.Errorf("budget not enforced: kept=%d budget=%d", sum.Kept, sum.Budget)
	}
	if !strings.Contains(sum.Spec, "seed=99") {
		t.Errorf("spec seed lost: %s", sum.Spec)
	}
	for _, req := range []map[string]any{
		{"spec": "systematic:interval=10,seed=1"},
		{"spec": "bernoulli:rate=0.5", "seed": 1},
	} {
		if code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/s2", req); code != http.StatusBadRequest {
			t.Errorf("create %v: got %d %s, want 400", req, code, body)
		}
	}
}

// TestFinishErrorStillRemoves: an engine whose finalization fails (a
// 5-sample draw over a 3-tick stream) is still torn down by DELETE, and
// the summary carries the error.
func TestFinishErrorStillRemoves(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()

	if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/s",
		map[string]any{"spec": "simple:n=5"}); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	code, body := doJSON(t, client, http.MethodPost, srv.URL+"/v1/streams/s/ticks", []float64{1, 2, 3})
	if want := "{\"frames\":1,\"accepted\":3,\"kept\":0}\n"; code != http.StatusOK || string(body) != want {
		t.Fatalf("ingest: %d %q, want 200 %q", code, body, want)
	}
	code, body = doJSON(t, client, http.MethodDelete, srv.URL+"/v1/streams/s", nil)
	if code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", code, body)
	}
	// The failed draw kept nothing: the tail is served empty, never null.
	if !bytes.Contains(body, []byte(`"tail":[]`)) {
		t.Errorf("empty tail not served as []: %s", body)
	}
	var fin finishResponse
	if err := json.Unmarshal(body, &fin); err != nil {
		t.Fatal(err)
	}
	if fin.Summary.Err == nil {
		t.Errorf("finish error lost: %s", body)
	}
	if code, _ = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams/s/snapshot", nil); code != http.StatusNotFound {
		t.Errorf("stream survived failed finish: %d", code)
	}
}

// TestHurstEndpoint drives the estimator surface over the wire: create
// with an estimator, ingest LRD traffic, read the live Hurst block from
// its endpoint and from the snapshot, and check the 404/400 edges.
func TestHurstEndpoint(t *testing.T) {
	h := hub.New()
	srv := httptest.NewServer(newServer(h, 0))
	defer srv.Close()
	client := srv.Client()

	status, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/lrd",
		map[string]any{"spec": "systematic:interval=8", "estimator": "aggvar"})
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	gen, err := lrd.NewFGN(0.8, 1<<13, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	series := gen.Generate(dist.NewRand(31))
	status, body = doJSON(t, client, http.MethodPost, srv.URL+"/v1/streams/lrd/ticks", series)
	if status != http.StatusOK {
		t.Fatalf("ticks: %d %s", status, body)
	}

	status, body = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams/lrd/hurst", nil)
	if status != http.StatusOK {
		t.Fatalf("hurst: %d %s", status, body)
	}
	var hs sampling.HurstSummary
	if err := json.Unmarshal(body, &hs); err != nil {
		t.Fatalf("hurst block %s: %v", body, err)
	}
	if hs.Method != "aggvar" || !hs.Input.OK {
		t.Errorf("hurst block not resolved: %s", body)
	}
	if hs.Input.H < 0.5 || hs.Input.H > 1.0 {
		t.Errorf("input H = %g, want LRD range for H=0.8 fGn", hs.Input.H)
	}

	// The snapshot document embeds the same block.
	status, body = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams/lrd/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("snapshot: %d %s", status, body)
	}
	var sum sampling.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Hurst == nil || sum.Hurst.Input.H != hs.Input.H {
		t.Errorf("snapshot hurst block disagrees with endpoint: %s", body)
	}

	// Metrics aggregate the estimating stream.
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"sampled_hurst_streams_estimating 1", "sampled_hurst_input_h_mean", "sampled_hurst_drift_mean"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// A stream without an estimator has no hurst subresource.
	status, _ = doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/plain",
		map[string]any{"spec": "systematic:interval=8"})
	if status != http.StatusCreated {
		t.Fatal("plain create failed")
	}
	status, body = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams/plain/hurst", nil)
	if status != http.StatusNotFound || !strings.Contains(string(body), "no estimator") {
		t.Errorf("hurst on estimator-less stream: %d %s", status, body)
	}
	// Unknown stream: plain 404.
	if status, _ = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams/ghost/hurst", nil); status != http.StatusNotFound {
		t.Errorf("hurst on missing stream: %d", status)
	}
	// Unknown estimator name: 400 at create.
	status, body = doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/bad",
		map[string]any{"spec": "systematic:interval=8", "estimator": "psychic"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown estimator: %d %s", status, body)
	}
}

// TestMetricsHurstCache: the O(streams) Hurst aggregate on /metrics
// reruns on every scrape while its walk is cheap and, once the walk is
// dear, only when its result is 100 walks old, so scraping cannot
// become an ingest stall. A small hub's scrape sees a new stream at once.
func TestMetricsHurstCache(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		age, walk time.Duration
		want      bool
	}{
		{0, 0, true},                      // never walked
		{0, 999 * time.Microsecond, true}, // cheap walk: every scrape
		{99 * ms, ms, false},              // 1 ms walk, 99 walks old
		{100 * ms, ms, true},              // 1 ms walk, 100 walks old
		{time.Second, 50 * ms, false},     // 50 ms walk, 20 walks old
		{5 * time.Second, 50 * ms, true},
	} {
		if got := hurstStale(tc.age, tc.walk); got != tc.want {
			t.Errorf("hurstStale(%v, %v) = %v, want %v", tc.age, tc.walk, got, tc.want)
		}
	}

	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	if _, body := getBody(t, srv.Client(), srv.URL+"/metrics"); !strings.Contains(body, "sampled_hurst_streams_estimating 0") {
		t.Fatal("fresh hub should report 0 estimating streams")
	}
	status, body := doJSON(t, srv.Client(), http.MethodPut, srv.URL+"/v1/streams/s",
		map[string]any{"spec": "systematic:interval=8", "estimator": "aggvar"})
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if _, body := getBody(t, srv.Client(), srv.URL+"/metrics"); !strings.Contains(body, "sampled_hurst_streams_estimating 1") {
		t.Errorf("scrape missed the new stream:\n%s", body)
	}
}

// TestGroupEndpoints drives the v2 comparison-group resource over the
// wire: create with all five techniques, batch ingest, live comparison,
// list, group metrics, finish with per-member tails, and the error
// mapping of the group namespace.
func TestGroupEndpoints(t *testing.T) {
	h := hub.New()
	srv := httptest.NewServer(newServer(h, 0))
	defer srv.Close()
	client := srv.Client()

	specs := []string{
		"systematic:interval=50,offset=7",
		"stratified:interval=50,seed=11",
		"simple:n=100,seed=5",
		"bernoulli:rate=0.02,seed=13",
		"bss:interval=50,L=5,eps=1.0",
	}
	code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/groups/cmp",
		map[string]any{"specs": specs, "estimator": "aggvar"})
	if code != http.StatusCreated {
		t.Fatalf("PUT group: %d %s", code, body)
	}

	series := heavyTailedSeries(42, 5000)
	for off := 0; off < len(series); off += 1000 {
		code, body := doJSON(t, client, http.MethodPost, srv.URL+"/v1/groups/cmp/ticks", series[off:off+1000])
		if code != http.StatusOK {
			t.Fatalf("POST group ticks: %d %s", code, body)
		}
		var resp ingestResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Accepted != 1000 {
			t.Fatalf("group ticks: accepted %d of 1000", resp.Accepted)
		}
	}

	code, body = doJSON(t, client, http.MethodGet, srv.URL+"/v1/groups/cmp", nil)
	if code != http.StatusOK {
		t.Fatalf("GET group: %d %s", code, body)
	}
	var cmp sampling.Comparison
	if err := json.Unmarshal(body, &cmp); err != nil {
		t.Fatalf("comparison %s: %v", body, err)
	}
	if cmp.Seen != len(series) || len(cmp.Members) != len(specs) || cmp.Finished {
		t.Fatalf("comparison: seen=%d members=%d finished=%v", cmp.Seen, len(cmp.Members), cmp.Finished)
	}
	for i, m := range cmp.Members {
		// Each member over the wire must match a standalone engine fed
		// the same series — the group adds observation, not distortion.
		ref, err := sampling.New(sampling.MustParse(specs[i]))
		if err != nil {
			t.Fatal(err)
		}
		ref.OfferBatch(series)
		want := ref.Snapshot()
		if m.Summary.Kept != want.Kept || m.Summary.Seen != want.Seen {
			t.Errorf("member %d (%s): kept=%d seen=%d, standalone kept=%d seen=%d",
				i, specs[i], m.Summary.Kept, m.Summary.Seen, want.Kept, want.Seen)
		}
	}

	code, body = doJSON(t, client, http.MethodGet, srv.URL+"/v1/groups", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"groups":["cmp"]`) {
		t.Errorf("group list: %d %s", code, body)
	}

	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{"sampled_groups 1", "sampled_groups_created_total 1",
		"sampled_group_ticks_total 5000"} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("metrics missing %q:\n%s", line, metrics)
		}
	}

	code, body = doJSON(t, client, http.MethodDelete, srv.URL+"/v1/groups/cmp", nil)
	if code != http.StatusOK {
		t.Fatalf("DELETE group: %d %s", code, body)
	}
	var fin finishGroupResponse
	if err := json.Unmarshal(body, &fin); err != nil {
		t.Fatal(err)
	}
	if !fin.Comparison.Finished || len(fin.Tails) != len(specs) {
		t.Errorf("group finish: finished=%v tails=%d", fin.Comparison.Finished, len(fin.Tails))
	}
	if len(fin.Tails[2]) != 100 {
		t.Errorf("simple member tail has %d samples, want its full n=100 draw", len(fin.Tails[2]))
	}

	// Error mapping in the group namespace.
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"snapshot of ghost group", http.MethodGet, "/v1/groups/ghost", nil, http.StatusNotFound},
		{"ticks to ghost group", http.MethodPost, "/v1/groups/ghost/ticks", []float64{1}, http.StatusNotFound},
		{"delete ghost group", http.MethodDelete, "/v1/groups/ghost", nil, http.StatusNotFound},
		{"spec-less group", http.MethodPut, "/v1/groups/bad", map[string]any{"specs": []string{}}, http.StatusBadRequest},
		{"unknown member technique", http.MethodPut, "/v1/groups/bad", map[string]any{"specs": []string{"warp-drive:rate=1"}}, http.StatusBadRequest},
		{"unknown estimator", http.MethodPut, "/v1/groups/bad", map[string]any{"specs": specs, "estimator": "psychic"}, http.StatusBadRequest},
		{"unknown body field", http.MethodPut, "/v1/groups/bad", map[string]any{"specs": specs, "sede": 1}, http.StatusBadRequest},
		{"negative budget", http.MethodPut, "/v1/groups/bad", map[string]any{"specs": specs, "budget": -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, body := doJSON(t, client, tc.method, srv.URL+tc.path, tc.body); code != tc.want {
			t.Errorf("%s: got %d (%s), want %d", tc.name, code, body, tc.want)
		}
	}
	if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/groups/dup",
		map[string]any{"specs": specs[:2]}); code != http.StatusCreated {
		t.Fatal("dup setup failed")
	}
	if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/groups/dup",
		map[string]any{"specs": specs[:2]}); code != http.StatusConflict {
		t.Errorf("duplicate group create: got %d, want 409", code)
	}
}

// TestGroupGoldenSnapshot pins the served comparison document: with a
// fake clock and a deterministic stream, the bytes coming off the wire
// must equal the marshaled form of an identically driven in-process
// group — the daemon adds transport, not content — and spot-checked
// literal fragments pin the wire names and null-for-NaN convention.
func TestGroupGoldenSnapshot(t *testing.T) {
	at := time.Date(2026, 7, 27, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return at }
	h := hub.New(hub.WithClock(clock))
	srv := httptest.NewServer(newServer(h, 0))
	defer srv.Close()

	specs := []string{"systematic:interval=2", "bernoulli:rate=0.5,seed=9"}
	code, body := doJSON(t, srv.Client(), http.MethodPut, srv.URL+"/v1/groups/golden",
		map[string]any{"specs": specs, "estimator": "aggvar"})
	if code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	series := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if code, body := doJSON(t, srv.Client(), http.MethodPost, srv.URL+"/v1/groups/golden/ticks", series); code != http.StatusOK {
		t.Fatalf("POST: %d %s", code, body)
	}
	code, served := doJSON(t, srv.Client(), http.MethodGet, srv.URL+"/v1/groups/golden", nil)
	if code != http.StatusOK {
		t.Fatalf("GET: %d %s", code, served)
	}

	ref, err := sampling.NewGroup(
		[]sampling.Spec{sampling.MustParse(specs[0]), sampling.MustParse(specs[1])},
		sampling.WithEstimator("aggvar"), sampling.WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	ref.OfferBatch(series)
	want, err := json.Marshal(ref.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(served)); got != string(want) {
		t.Errorf("served comparison differs from the golden document:\n got %s\nwant %s", got, want)
	}
	for _, frag := range []string{
		`"seen":8`, `"mean":4.5`, `"method":"aggvar"`, `"kept_ratio":0.5`,
		`"technique":"systematic"`, `"hurst_drift":null`, `"uptime_ns":0`,
		`"at":"2026-07-27T12:00:00Z"`,
	} {
		if !strings.Contains(string(served), frag) {
			t.Errorf("golden document missing %s:\n%s", frag, served)
		}
	}
}

// TestServedDocumentsAreMarshalJSON pins writeJSON's direct path: the
// bytes of every live document — a stream of each technique, a fresh
// stream whose moments are still NaN, its Hurst block, and a group of
// every technique — are the document's own MarshalJSON output plus a
// newline.
func TestServedDocumentsAreMarshalJSON(t *testing.T) {
	at := time.Date(2026, 7, 27, 12, 0, 0, 0, time.UTC)
	h := hub.New(hub.WithClock(func() time.Time { return at }))
	srv := httptest.NewServer(newServer(h, 0))
	defer srv.Close()
	client := srv.Client()

	specs := []string{
		"systematic:interval=50,offset=7",
		"stratified:interval=50,seed=11",
		"simple:n=100,seed=5",
		"bernoulli:rate=0.02,seed=13",
		"bss:interval=50,L=5,eps=1.0",
	}
	series := heavyTailedSeries(42, 5000)
	check := func(path string, doc json.Marshaler) {
		t.Helper()
		want, err := doc.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		code, got := doJSON(t, client, http.MethodGet, srv.URL+path, nil)
		if code != http.StatusOK || string(got) != string(want)+"\n" {
			t.Errorf("GET %s: %d\n got %q\nwant %q + newline", path, code, got, want)
		}
	}
	for i, spec := range specs {
		id := "s" + strings.SplitN(spec, ":", 2)[0]
		code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/"+id,
			map[string]any{"spec": spec, "estimator": "aggvar"})
		if code != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", id, code, body)
		}
		if i > 0 {
			if code, body := doJSON(t, client, http.MethodPost, srv.URL+"/v1/streams/"+id+"/ticks", series); code != http.StatusOK {
				t.Fatalf("POST %s: %d %s", id, code, body)
			}
		}
		sum, err := h.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		check("/v1/streams/"+id+"/snapshot", sum)
		check("/v1/streams/"+id+"/hurst", sum.Hurst)
	}
	if code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/groups/cmp",
		map[string]any{"specs": specs, "estimator": "aggvar"}); code != http.StatusCreated {
		t.Fatalf("PUT group: %d %s", code, body)
	}
	if code, body := doJSON(t, client, http.MethodPost, srv.URL+"/v1/groups/cmp/ticks", series); code != http.StatusOK {
		t.Fatalf("POST group: %d %s", code, body)
	}
	cmp, err := h.GroupSnapshot("cmp")
	if err != nil {
		t.Fatal(err)
	}
	check("/v1/groups/cmp", cmp)
}

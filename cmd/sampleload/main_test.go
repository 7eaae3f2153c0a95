package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/sampling"
	"repro/sampling/estimate"
	"repro/sampling/hub"
	"repro/sampling/wire"
)

func TestDirectLoad(t *testing.T) {
	cfg := loadConfig{
		direct:  true,
		streams: 128,
		ticks:   2000,
		batch:   256,
		workers: 8,
		spec:    "systematic:interval=100",
		traffic: "fgn",
		hurst:   0.8,
		seed:    1,
	}
	var buf bytes.Buffer
	res, err := runLoad(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.streams * cfg.ticks); res.ticks != want {
		t.Errorf("ingested %d ticks, want %d", res.ticks, want)
	}
	// interval=100 keeps 20 of every stream's 2000 ticks exactly.
	if want := int64(cfg.streams * cfg.ticks / 100); res.kept != want {
		t.Errorf("kept %d samples, want %d", res.kept, want)
	}
	// The roadmap's floor is 1M ticks/s aggregate; log, don't assert —
	// CI machines are not benchmarking rigs.
	t.Logf("direct mode: %.3g ticks/s aggregate over %d streams", res.ticksPerSec(), cfg.streams)
}

func TestDirectLoadOnOffAndSeeds(t *testing.T) {
	cfg := loadConfig{
		direct:  true,
		streams: 8,
		ticks:   1000,
		batch:   128,
		workers: 4,
		spec:    "bernoulli:rate=0.05,seed=3",
		traffic: "onoff",
		hurst:   0.75,
		seed:    7,
	}
	var buf bytes.Buffer
	res, err := runLoad(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.streams * cfg.ticks); res.ticks != want {
		t.Errorf("ingested %d ticks, want %d", res.ticks, want)
	}
	if res.kept == 0 {
		t.Error("bernoulli kept nothing")
	}
}

// fakeReadTicks parses the three single-POST batch encodings the
// driver can send — JSON, whitespace text and one binary frame — just
// enough protocol fidelity for the wire tests.
func fakeReadTicks(r *http.Request) ([]float64, error) {
	switch ct := r.Header.Get("Content-Type"); {
	case strings.HasPrefix(ct, wire.ContentType):
		_, values, err := wire.NewDecoder(r.Body, 0).ReadFrame()
		return values, err
	case strings.HasPrefix(ct, "text/plain"):
		data, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		var values []float64
		for _, field := range strings.Fields(string(data)) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, err
			}
			values = append(values, v)
		}
		return values, nil
	default:
		var values []float64
		err := json.NewDecoder(r.Body).Decode(&values)
		return values, err
	}
}

// fakeDaemon mirrors the sampled daemon's v1 surface over a hub, for
// both namespaces ({ns} is "streams" or "groups") — just enough
// protocol for the HTTP driver to run against a loopback port.
func fakeDaemon(h *hub.Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/{ns}/{id}", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Spec      sampling.Spec   `json:"spec"`
			Specs     []sampling.Spec `json:"specs"`
			Estimator string          `json:"estimator"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var opts []sampling.Option
		if req.Estimator != "" {
			opts = append(opts, sampling.WithEstimator(estimate.Method(req.Estimator)))
		}
		var err error
		if r.PathValue("ns") == "groups" {
			err = h.CreateGroup(r.PathValue("id"), req.Specs, opts...)
		} else {
			err = h.Create(r.PathValue("id"), req.Spec, opts...)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("GET /v1/streams/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		sum, err := h.Snapshot(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(sum)
	})
	mux.HandleFunc("GET /v1/groups/{id}", func(w http.ResponseWriter, r *http.Request) {
		cmp, err := h.GroupSnapshot(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(cmp)
	})
	mux.HandleFunc("POST /v1/{ns}/{id}/ticks", func(w http.ResponseWriter, r *http.Request) {
		values, err := fakeReadTicks(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		offer := h.OfferBatch
		if r.PathValue("ns") == "groups" {
			offer = h.OfferGroupBatch
		}
		kept, err := offer(r.PathValue("id"), values)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(map[string]int{"accepted": len(values), "kept": kept})
	})
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, r *http.Request) {
		dec := wire.NewDecoder(r.Body, 0)
		var kept int64
		for {
			id, values, err := dec.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			k, err := h.OfferBatch(id, values)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			kept += int64(k)
		}
		json.NewEncoder(w).Encode(map[string]int64{"kept": kept})
	})
	mux.HandleFunc("DELETE /v1/{ns}/{id}", func(w http.ResponseWriter, r *http.Request) {
		var err error
		if r.PathValue("ns") == "groups" {
			_, _, err = h.FinishGroup(r.PathValue("id"))
		} else {
			_, _, err = h.Finish(r.PathValue("id"))
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Write([]byte("{}"))
	})
	return mux
}

func TestHTTPLoad(t *testing.T) {
	h := hub.New()
	srv := httptest.NewServer(fakeDaemon(h))
	defer srv.Close()

	cfg := loadConfig{
		addr:    srv.URL,
		streams: 16,
		ticks:   1000,
		batch:   250,
		workers: 4,
		spec:    "systematic:interval=50",
		traffic: "fgn",
		hurst:   0.8,
		seed:    1,
	}
	var buf bytes.Buffer
	res, err := runLoad(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.streams * cfg.ticks); res.ticks != want {
		t.Errorf("ingested %d ticks, want %d", res.ticks, want)
	}
	if want := int64(cfg.streams * cfg.ticks / 50); res.kept != want {
		t.Errorf("kept %d samples, want %d", res.kept, want)
	}
	if n := h.Stats().Streams; n != 0 {
		t.Errorf("%d streams left behind on the daemon", n)
	}
	t.Logf("http mode: %.3g ticks/s aggregate", res.ticksPerSec())
}

// TestHTTPLoadWires drives the same workload through each HTTP
// encoding, over both namespaces: streams, and two-technique groups
// (the session wire routes frames by stream id, so it drives streams
// only). The totals must not depend on the wire.
func TestHTTPLoadWires(t *testing.T) {
	for _, w := range []string{"json", "text", "binary", "session"} {
		t.Run(w, func(t *testing.T) {
			for _, compare := range []string{"", "systematic:interval=50;stratified:interval=50"} {
				ns, members := "streams", 1
				if compare != "" {
					ns, members = "groups", 2
				}
				if w == "session" && compare != "" {
					continue
				}
				t.Run(ns, func(t *testing.T) {
					h := hub.New()
					srv := httptest.NewServer(fakeDaemon(h))
					defer srv.Close()
					cfg := loadConfig{
						addr:    srv.URL,
						streams: 4,
						ticks:   1000,
						batch:   250,
						workers: 2,
						wire:    w,
						spec:    "systematic:interval=50",
						compare: compare,
						traffic: "fgn",
						hurst:   0.8,
						seed:    1,
					}
					var buf bytes.Buffer
					res, err := runLoad(cfg, &buf)
					if err != nil {
						t.Fatal(err)
					}
					if want := int64(cfg.streams * cfg.ticks); res.ticks != want {
						t.Errorf("ingested %d ticks, want %d", res.ticks, want)
					}
					if want := int64(cfg.streams * cfg.ticks / 50 * members); res.kept != want {
						t.Errorf("kept %d samples, want %d", res.kept, want)
					}
					if st := h.Stats(); st.Streams != 0 || st.Groups != 0 {
						t.Errorf("%d streams and %d groups left behind on the daemon", st.Streams, st.Groups)
					}
					if !strings.Contains(buf.String(), "("+w+" wire)") {
						t.Errorf("run output does not name the wire:\n%s", buf.String())
					}
				})
			}
		})
	}
}

func TestCheckWire(t *testing.T) {
	if got := (loadConfig{}).wireName(); got != "json" {
		t.Errorf("zero-value wire resolves to %q, want json", got)
	}
	for _, ok := range []loadConfig{
		{wire: "json"},
		{wire: "text"},
		{wire: "binary"},
		{wire: "session"},
		{direct: true},
		{direct: true, wire: "json"},
		{compare: "a;b", wire: "binary"},
	} {
		if err := ok.checkWire(); err != nil {
			t.Errorf("checkWire(%+v) = %v, want nil", ok, err)
		}
	}
	for name, bad := range map[string]loadConfig{
		"unknown wire":         {wire: "carrier-pigeon"},
		"direct with binary":   {direct: true, wire: "binary"},
		"compare with session": {compare: "a;b", wire: "session"},
	} {
		if err := bad.checkWire(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The flag path surfaces the same rejection.
	var buf bytes.Buffer
	if err := run([]string{"-direct", "-wire", "binary"}, &buf); err == nil {
		t.Error("run accepted -direct -wire binary")
	}
}

func TestRunFlagsAndOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-direct", "-streams", "4", "-ticks", "500", "-batch", "100",
		"-workers", "2", "-spec", "systematic:interval=10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ticks/s aggregate", "kept:", "traffic:  fgn"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestDirectLoadToleratesFinishErrors: a workload whose engines cannot
// finalize (a 5000-sample draw over 1000 ticks) must still report its
// ingest measurement — finish errors are workload properties, and the
// HTTP daemon's DELETE tolerates them identically.
func TestDirectLoadToleratesFinishErrors(t *testing.T) {
	var buf bytes.Buffer
	res, err := runLoad(loadConfig{direct: true, streams: 4, ticks: 1000, batch: 250, workers: 2,
		spec: "simple:n=5000", traffic: "fgn", hurst: 0.8, seed: 1}, &buf)
	if err != nil {
		t.Fatalf("deferred finish error aborted the run: %v", err)
	}
	if res.ticks != 4000 {
		t.Errorf("ingested %d ticks, want 4000", res.ticks)
	}
}

func TestSpecAcceptsSeed(t *testing.T) {
	cases := []struct {
		spec string
		want bool
	}{
		{"bernoulli:rate=0.2", true}, // randomized, seed omitted: must get per-stream seeds
		{"stratified:interval=10", true},
		{"simple:n=5", true},
		{"systematic:interval=10", false},
		{"bss:interval=10,L=3", false},
	}
	for _, tc := range cases {
		if got := specAcceptsSeed(sampling.MustParse(tc.spec)); got != tc.want {
			t.Errorf("specAcceptsSeed(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestBadConfig(t *testing.T) {
	var buf bytes.Buffer
	if _, err := runLoad(loadConfig{direct: true, streams: 1, ticks: 1, batch: 1, workers: 1,
		spec: "systematic:interval=10", traffic: "tachyon"}, &buf); err == nil {
		t.Error("unknown traffic model accepted")
	}
	if _, err := runLoad(loadConfig{direct: true, streams: 0, ticks: 1, batch: 1, workers: 1,
		spec: "systematic:interval=10", traffic: "fgn", hurst: 0.8}, &buf); err == nil {
		t.Error("zero streams accepted")
	}
	if _, err := runLoad(loadConfig{direct: true, streams: 1, ticks: 1, batch: 1, workers: 1,
		spec: ":bad", traffic: "fgn", hurst: 0.8}, &buf); err == nil {
		t.Error("bad spec accepted")
	}
}

// BenchmarkDirectLoad is the CI-tracked number for the whole direct
// path: stream creation, concurrent batched ingest of fGn traffic
// across 64 streams, teardown. The ticks/s metric is the aggregate
// ingest rate of the timed phase.
func BenchmarkDirectLoad(b *testing.B) {
	cfg := loadConfig{
		direct:  true,
		streams: 64,
		ticks:   20000,
		batch:   512,
		workers: 8,
		spec:    "systematic:interval=100",
		traffic: "fgn",
		hurst:   0.8,
		seed:    1,
	}
	var rate float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		res, err := runLoad(cfg, &buf)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.ticksPerSec()
	}
	b.ReportMetric(rate, "ticks/s")
}

// TestDirectLoadReportsDrift: with an estimator attached the run
// resolves a pre-sampling H close to the generator's and reports a
// finite drift — the paper's preservation readout from the load tool.
func TestDirectLoadReportsDrift(t *testing.T) {
	cfg := loadConfig{
		direct:    true,
		streams:   4,
		ticks:     1 << 15,
		batch:     1024,
		workers:   2,
		spec:      "systematic:interval=10",
		traffic:   "fgn",
		hurst:     0.8,
		seed:      1,
		estimator: "aggvar",
	}
	var buf bytes.Buffer
	res, err := runLoad(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	dr := res.drift
	if dr == nil {
		t.Fatal("no drift report despite estimator")
	}
	if dr.inputN != cfg.streams || dr.keptN != cfg.streams || dr.driftN != cfg.streams {
		t.Fatalf("resolved counts (%d, %d, %d), want all %d", dr.inputN, dr.keptN, dr.driftN, cfg.streams)
	}
	if math.Abs(dr.inputH-cfg.hurst) > 0.15 {
		t.Errorf("input H = %.3f, want ~%.2f", dr.inputH, cfg.hurst)
	}
	if math.Abs(dr.driftH-(dr.keptH-dr.inputH)) > 1e-9 {
		t.Errorf("drift %.4f inconsistent with kept-input %.4f", dr.driftH, dr.keptH-dr.inputH)
	}
}

// TestHTTPLoadReportsDrift drives the drift path over the wire,
// including the GET /snapshot round trip.
func TestHTTPLoadReportsDrift(t *testing.T) {
	h := hub.New()
	srv := httptest.NewServer(fakeDaemon(h))
	defer srv.Close()
	cfg := loadConfig{
		addr:      srv.URL,
		streams:   2,
		ticks:     1 << 14,
		batch:     1024,
		workers:   2,
		spec:      "systematic:interval=10",
		traffic:   "fgn",
		hurst:     0.75,
		seed:      3,
		estimator: "wavelet",
	}
	var buf bytes.Buffer
	res, err := runLoad(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.drift == nil || res.drift.inputN != cfg.streams {
		t.Fatalf("drift not resolved over HTTP: %+v", res.drift)
	}
}

func TestRunOutputIncludesHurst(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-direct", "-streams", "2", "-ticks", "32768", "-batch", "1024",
		"-workers", "2", "-spec", "systematic:interval=10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hurst:", "aggvar estimator", "input  H", "drift"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// And -estimator off silences the block.
	buf.Reset()
	err = run([]string{"-direct", "-streams", "2", "-ticks", "1000", "-batch", "500",
		"-workers", "1", "-spec", "systematic:interval=10", "-estimator", "off"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "hurst:") {
		t.Errorf("-estimator off still printed a hurst block:\n%s", buf.String())
	}
}

func TestBadEstimatorRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := runLoad(loadConfig{direct: true, streams: 1, ticks: 64, batch: 64, workers: 1,
		spec: "systematic:interval=10", traffic: "fgn", hurst: 0.8, estimator: "psychic"}, &buf); err == nil {
		t.Error("unknown estimator accepted")
	}
}

// TestCompareDirect: -compare mode over the in-process hub produces one
// fidelity row per technique, with the deterministic technique's kept
// ratio exact.
func TestCompareDirect(t *testing.T) {
	cfg := loadConfig{
		direct:    true,
		streams:   4,
		ticks:     20000, // a multiple of the systematic interval, so kept% is exact
		batch:     512,
		workers:   2,
		compare:   "systematic:interval=100;bernoulli:rate=0.01;bss:interval=100,L=5,eps=1.0",
		traffic:   "fgn",
		hurst:     0.8,
		seed:      1,
		estimator: "aggvar",
	}
	var buf bytes.Buffer
	if _, err := runLoad(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"3 techniques", "mean-bias", "h-drift",
		"systematic:interval=100", "bernoulli:rate=0.01", "bss:L=5,eps=1.0,interval=100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// interval=100 keeps exactly 1% of every group's input.
	if !strings.Contains(out, "systematic:interval=100                1.000%") {
		t.Errorf("systematic kept%% row wrong:\n%s", out)
	}
	// The aggvar estimator resolves on 20k fGn ticks: the drift column
	// must carry numbers, not n/a.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "systematic:interval=100") && strings.Contains(line, "n/a") {
			t.Errorf("systematic fidelity unresolved:\n%s", out)
		}
	}
}

// TestCompareHTTP drives -compare over the wire, including the
// comparison-document round trip.
func TestCompareHTTP(t *testing.T) {
	h := hub.New()
	srv := httptest.NewServer(fakeDaemon(h))
	defer srv.Close()
	cfg := loadConfig{
		addr:      srv.URL,
		streams:   2,
		ticks:     4000,
		batch:     500,
		workers:   2,
		compare:   "systematic:interval=50;stratified:interval=50",
		traffic:   "fgn",
		hurst:     0.8,
		seed:      3,
		estimator: "off",
	}
	var buf bytes.Buffer
	if _, err := runLoad(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Groups != 0 || st.GroupsCreated != 2 {
		t.Errorf("groups not torn down: %+v", st)
	}
	if !strings.Contains(buf.String(), "(h-drift needs an estimator") {
		t.Errorf("estimator-off note missing:\n%s", buf.String())
	}
}

func TestCompareBadFlags(t *testing.T) {
	var buf bytes.Buffer
	base := loadConfig{direct: true, streams: 1, ticks: 64, batch: 64, workers: 1,
		traffic: "fgn", hurst: 0.8}
	one := base
	one.compare = "systematic:interval=10"
	if _, err := runLoad(one, &buf); err == nil {
		t.Error("single-spec compare accepted")
	}
	bad := base
	bad.compare = "systematic:interval=10;:broken"
	if _, err := runLoad(bad, &buf); err == nil {
		t.Error("bad compare spec accepted")
	}
}

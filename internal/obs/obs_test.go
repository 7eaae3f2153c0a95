package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// --- a minimal Prometheus text-format parser ---
//
// Enough of the 0.0.4 grammar to verify our own writer: HELP/TYPE
// comment handling, label unescaping, sample values. Structure errors
// (samples before TYPE, TYPE before HELP, samples of a foreign family)
// fail the test immediately.

type parsedSample struct {
	name   string
	labels map[string]string
	value  float64
}

type parsedFamily struct {
	name, help, typ string
	samples         []parsedSample
}

// sampleFamily strips a histogram suffix off a sample name.
func sampleFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

func parseExposition(t *testing.T, text string) []parsedFamily {
	t.Helper()
	var fams []parsedFamily
	cur := -1 // index into fams
	sawType := false
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			fams = append(fams, parsedFamily{name: name, help: unescapeHelp(help)})
			cur = len(fams) - 1
			sawType = false
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, _ := strings.Cut(rest, " ")
			if cur < 0 || fams[cur].name != name {
				t.Fatalf("line %d: TYPE %s without a preceding HELP %s", ln+1, name, name)
			}
			if sawType {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			fams[cur].typ = typ
			sawType = true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			s := parseSample(t, ln+1, line)
			if cur < 0 || sampleFamily(s.name) != fams[cur].name {
				t.Fatalf("line %d: sample %s outside its family block (current %q)", ln+1, s.name, fams[cur].name)
			}
			if !sawType {
				t.Fatalf("line %d: sample %s before its TYPE line", ln+1, s.name)
			}
			fams[cur].samples = append(fams[cur].samples, s)
		}
	}
	return fams
}

func parseSample(t *testing.T, ln int, line string) parsedSample {
	t.Helper()
	s := parsedSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		rest = line[i+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("line %d: malformed label in %q", ln, line)
			}
			label := rest[:eq]
			val, tail, err := unquoteLabel(rest[eq+2:])
			if err != nil {
				t.Fatalf("line %d: %v in %q", ln, err, line)
			}
			s.labels[label] = val
			rest = tail
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if !strings.HasPrefix(rest, "} ") {
				t.Fatalf("line %d: expected \"} \" after labels in %q", ln, line)
			}
			rest = rest[2:]
			break
		}
	} else {
		var ok bool
		s.name, rest, ok = strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: no value in %q", ln, line)
		}
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

// unquoteLabel consumes an escaped label value up to its closing quote
// and returns the decoded value plus the remainder after the quote.
func unquoteLabel(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func unescapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

func scrape(t *testing.T, r *Registry) []parsedFamily {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return parseExposition(t, buf.String())
}

func findFamily(t *testing.T, fams []parsedFamily, name string) parsedFamily {
	t.Helper()
	for _, f := range fams {
		if f.name == name {
			return f
		}
	}
	t.Fatalf("family %s not in exposition", name)
	return parsedFamily{}
}

// --- exposition writer ---

func TestWriteTextOrderingAndTypes(t *testing.T) {
	r := NewRegistry()
	// Registered deliberately out of name order.
	r.NewGauge("zz_last", "Last by name.").Set(3)
	r.NewCounter("aa_first_total", "First by name.").Add(7)
	r.NewHistogramVec("mm_mid_seconds", "Middle.", []float64{1, 2}).With()
	fams := parseExposition(t, func() string {
		var buf bytes.Buffer
		r.WriteText(&buf)
		return buf.String()
	}())
	var names []string
	for _, f := range fams {
		names = append(names, f.name)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("families not sorted by name: %v", names)
	}
	if got := findFamily(t, fams, "aa_first_total"); got.typ != "counter" || got.help != "First by name." || got.samples[0].value != 7 {
		t.Fatalf("counter family mangled: %+v", got)
	}
	if got := findFamily(t, fams, "zz_last"); got.typ != "gauge" || got.samples[0].value != 3 {
		t.Fatalf("gauge family mangled: %+v", got)
	}
	if got := findFamily(t, fams, "mm_mid_seconds"); got.typ != "histogram" {
		t.Fatalf("histogram family mangled: %+v", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	tricky := "a\\b\"c\nd"
	r.NewCounterVec("esc_total", "Help with \\ backslash\nand newline.", "k").With(tricky).Add(1)
	fam := findFamily(t, scrape(t, r), "esc_total")
	if fam.help != "Help with \\ backslash\nand newline." {
		t.Fatalf("help round-trip failed: %q", fam.help)
	}
	if got := fam.samples[0].labels["k"]; got != tricky {
		t.Fatalf("label round-trip failed: %q != %q", got, tricky)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("lat_seconds", "Latency.", []float64{0.1, 1, 10}, "route").With("a")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	fam := findFamily(t, scrape(t, r), "lat_seconds")
	var buckets []parsedSample
	var sum, count *parsedSample
	for i := range fam.samples {
		s := fam.samples[i]
		switch s.name {
		case "lat_seconds_bucket":
			buckets = append(buckets, s)
		case "lat_seconds_sum":
			sum = &fam.samples[i]
		case "lat_seconds_count":
			count = &fam.samples[i]
		}
	}
	wantBuckets := map[string]float64{"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
	if len(buckets) != len(wantBuckets) {
		t.Fatalf("got %d bucket lines, want %d", len(buckets), len(wantBuckets))
	}
	prev := -1.0
	for _, b := range buckets {
		le := b.labels["le"]
		if b.labels["route"] != "a" {
			t.Fatalf("bucket lost its route label: %+v", b)
		}
		if want := wantBuckets[le]; b.value != want {
			t.Fatalf("bucket le=%s = %v, want %v", le, b.value, want)
		}
		if b.value < prev {
			t.Fatalf("cumulative buckets not monotone at le=%s: %v < %v", le, b.value, prev)
		}
		prev = b.value
	}
	if buckets[len(buckets)-1].labels["le"] != "+Inf" {
		t.Fatalf("last bucket is le=%s, want +Inf", buckets[len(buckets)-1].labels["le"])
	}
	if count == nil || count.value != 5 {
		t.Fatalf("_count = %+v, want 5", count)
	}
	if buckets[len(buckets)-1].value != count.value {
		t.Fatalf("+Inf bucket %v != _count %v", buckets[len(buckets)-1].value, count.value)
	}
	if sum == nil || math.Abs(sum.value-56.05) > 1e-9 {
		t.Fatalf("_sum = %+v, want 56.05", sum)
	}
}

func TestValueFormatting(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("fmt_nan", "NaN gauge.", func() float64 { return math.NaN() })
	r.NewGaugeFunc("fmt_big", "Large integral gauge.", func() float64 { return 12345678901234 })
	r.NewGaugeFunc("fmt_neg_inf", "Negative infinity.", func() float64 { return math.Inf(-1) })
	var buf bytes.Buffer
	r.WriteText(&buf)
	text := buf.String()
	for _, want := range []string{"fmt_nan NaN\n", "fmt_big 12345678901234\n", "fmt_neg_inf -Inf\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}

func TestOnScrapeRunsBeforeFuncs(t *testing.T) {
	r := NewRegistry()
	var v float64
	r.OnScrape(func() { v = 42 })
	r.NewGaugeFunc("hooked", "Hook-fed gauge.", func() float64 { return v })
	fam := findFamily(t, scrape(t, r), "hooked")
	if fam.samples[0].value != 42 {
		t.Fatalf("hook did not run before func read: %v", fam.samples[0].value)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	mustPanic("duplicate", func() { r.NewGauge("dup_total", "y") })
	mustPanic("bad name", func() { r.NewCounter("has space", "x") })
	mustPanic("bad label", func() { r.NewCounterVec("v_total", "x", "l=l") })
	mustPanic("bad bounds", func() { r.NewHistogramVec("h_seconds", "x", []float64{1, 1}).With() })
	mustPanic("label arity", func() { r.NewCounterVec("arity_total", "x", "a", "b").With("only-one") })
}

// --- hot-path allocation and quantiles ---

func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("alloc_total", "x")
	g := r.NewGauge("alloc_gauge", "x")
	h := r.NewHistogramVec("alloc_seconds", "x", DurationBuckets()).With()
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op", n)
	}
	v := 0.0001
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v *= 1.01 }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}

func TestQuantile(t *testing.T) {
	h := NewBareHistogram([]float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("empty histogram quantile should be NaN")
	}
	// 100 observations uniform in (0, 4]: 25 per finite bucket 1,2,4
	// and 25 in (2,4]... use a simple spread instead.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // values .5..7.5 uniformly
	}
	if q := h.Quantile(0.5); q < 1 || q > 5 {
		t.Fatalf("p50 = %v, want within [1, 5]", q)
	}
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("p100 = %v, want upper bound 8", q)
	}
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.1)) {
		t.Fatalf("out-of-range q must be NaN")
	}
	// Observations beyond every bound clamp to the highest finite bound.
	h2 := NewBareHistogram([]float64{1})
	h2.Observe(100)
	if q := h2.Quantile(0.99); q != 1 {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to 1", q)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 4, 10)
	if len(b) != 10 || b[0] != 1e-6 {
		t.Fatalf("bad buckets %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not increasing at %d: %v", i, b)
		}
	}
}

// --- flight recorder ---

func TestRecorderWrapAndOrder(t *testing.T) {
	rec := NewRecorder(16)
	for i := 0; i < 40; i++ {
		rec.Record(Event{Kind: "request", ID: fmt.Sprintf("e%d", i)})
	}
	if rec.Total() != 40 {
		t.Fatalf("Total = %d, want 40", rec.Total())
	}
	evs := rec.Events()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d, want 16", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("e%d", 39-i); ev.ID != want {
			t.Fatalf("event %d = %s, want %s (newest first)", i, ev.ID, want)
		}
	}
}

func TestRecorderServeHTTP(t *testing.T) {
	rec := NewRecorder(16)
	rec.Record(Event{Kind: "error", Route: "GET /x", Status: 500, Detail: "boom"})
	rr := httptest.NewRecorder()
	rec.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/events", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc struct {
		Total    uint64  `json:"total"`
		Capacity int     `json:"capacity"`
		Events   []Event `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if doc.Total != 1 || doc.Capacity != 16 || len(doc.Events) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if e := doc.Events[0]; e.Kind != "error" || e.Status != 500 || e.Detail != "boom" {
		t.Fatalf("event = %+v", e)
	}
}

// --- HTTP observer ---

func TestHTTPObserverWrap(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(16)
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	o := NewHTTPObserver(reg, "t", []string{"GET /v1/streams/{id}", "other"}, rec, logger)
	now := time.Unix(100, 0)
	o.SetClock(func() time.Time {
		now = now.Add(50 * time.Millisecond)
		return now
	})
	mux := http.NewServeMux()
	mux.Handle("GET /v1/streams/{id}", o.Wrap("GET /v1/streams/{id}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") == "missing" {
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"no such stream"}`))
			return
		}
		w.Write([]byte("ok"))
	})))

	for _, path := range []string{"/v1/streams/s1", "/v1/streams/s2", "/v1/streams/missing"} {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, strings.NewReader("body"))
		mux.ServeHTTP(rr, req)
	}

	fams := scrape(t, reg)
	dur := findFamily(t, fams, "t_http_request_duration_seconds")
	var count, sum float64
	for _, s := range dur.samples {
		if s.name == "t_http_request_duration_seconds_count" && s.labels["route"] == "GET /v1/streams/{id}" {
			count = s.value
		}
		if s.name == "t_http_request_duration_seconds_sum" && s.labels["route"] == "GET /v1/streams/{id}" {
			sum = s.value
		}
	}
	if count != 3 {
		t.Fatalf("duration count = %v, want 3", count)
	}
	if math.Abs(sum-0.150) > 1e-9 {
		t.Fatalf("duration sum = %v, want 0.150 (3 x 50ms pinned clock)", sum)
	}
	reqs := findFamily(t, fams, "t_http_requests_total")
	classes := map[string]float64{}
	for _, s := range reqs.samples {
		if s.value > 0 {
			classes[s.labels["class"]] = s.value
		}
	}
	if classes["2xx"] != 2 || classes["4xx"] != 1 {
		t.Fatalf("status classes = %v, want 2xx:2 4xx:1", classes)
	}
	size := findFamily(t, fams, "t_http_request_bytes")
	for _, s := range size.samples {
		if s.name == "t_http_request_bytes_count" && s.labels["route"] == "GET /v1/streams/{id}" && s.value != 3 {
			t.Fatalf("size count = %v, want 3", s.value)
		}
	}

	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("recorder holds %d events, want 3", len(evs))
	}
	if evs[0].Kind != "error" || evs[0].Status != 404 || evs[0].ID != "missing" ||
		!strings.Contains(evs[0].Detail, "no such stream") {
		t.Fatalf("newest event = %+v, want the 404 with its body as detail", evs[0])
	}
	if evs[1].Kind != "request" || evs[1].ID != "s2" || evs[1].Dur != 50*time.Millisecond {
		t.Fatalf("event = %+v", evs[1])
	}

	logs := logBuf.String()
	if strings.Count(logs, `"route":"GET /v1/streams/{id}"`) != 3 {
		t.Fatalf("want 3 request log lines, got:\n%s", logs)
	}
	if !strings.Contains(logs, `"level":"WARN"`) || !strings.Contains(logs, `"id":"missing"`) {
		t.Fatalf("404 should log at WARN with its id:\n%s", logs)
	}
}

func TestHTTPObserverUnknownRoutePanics(t *testing.T) {
	reg := NewRegistry()
	o := NewHTTPObserver(reg, "t", []string{"a"}, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("Wrap of an unregistered route must panic")
		}
	}()
	o.Wrap("b", http.NotFoundHandler())
}

// --- logging and build info ---

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept", "k", 1)
	if strings.Contains(buf.String(), "dropped") {
		t.Fatalf("info leaked past warn level: %s", buf.String())
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("not JSON: %v: %s", err, buf.String())
	}
	if line["msg"] != "kept" || line["k"] != 1.0 {
		t.Fatalf("line = %v", line)
	}
	if _, err := NewLogger(&buf, "yaml", "info"); err == nil {
		t.Fatalf("bad format must error")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Fatalf("bad level must error")
	}
}

func TestBuildInfo(t *testing.T) {
	v, gv := BuildInfo()
	if v == "" || gv == "" {
		t.Fatalf("BuildInfo() = %q, %q", v, gv)
	}
	if !strings.HasPrefix(gv, "go") && !strings.HasPrefix(gv, "devel") {
		t.Fatalf("go version = %q", gv)
	}
}

// --- runtime metrics ---

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r, "t")
	fams := scrape(t, r)
	if g := findFamily(t, fams, "t_goroutines"); g.samples[0].value < 1 {
		t.Fatalf("goroutines = %v, want >= 1", g.samples[0].value)
	}
	if h := findFamily(t, fams, "t_heap_objects_bytes"); h.samples[0].value <= 0 {
		t.Fatalf("heap bytes = %v, want > 0", h.samples[0].value)
	}
	gc := findFamily(t, fams, "t_gc_pause_seconds_total")
	if gc.typ != "counter" || gc.samples[0].value < 0 || math.IsNaN(gc.samples[0].value) {
		t.Fatalf("gc pause total = %+v", gc)
	}
}

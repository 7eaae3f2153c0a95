package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/internal/obs"
	"repro/sampling"
	"repro/sampling/cluster"
	"repro/sampling/hub"
	"repro/sampling/wire"
)

// postRaw sends one body with an explicit content type and returns the
// status and response body.
func postRaw(t testing.TB, client *http.Client, url, ctype string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, ctype, bytes.NewReader(body))
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

func mustFrame(t testing.TB, id string, ticks []float64) []byte {
	t.Helper()
	b, err := wire.AppendFrame(nil, id, ticks)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBinaryIngest drives the binary wire end to end: single and
// multi-frame bodies into streams and groups, with the ingest counters
// surfacing on /metrics.
func TestBinaryIngest(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()

	if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/s",
		map[string]any{"spec": "systematic:interval=2"}); code != http.StatusCreated {
		t.Fatal("create failed")
	}

	// One body, three frames: anonymous, URL-matching id, anonymous.
	body := mustFrame(t, "", []float64{1, 2, 3, 4})
	body = append(body, mustFrame(t, "s", []float64{5, 6})...)
	body = append(body, mustFrame(t, "", []float64{7})...)
	code, data := postRaw(t, client, srv.URL+"/v1/streams/s/ticks", wire.ContentType, body)
	if code != http.StatusOK {
		t.Fatalf("binary ingest: %d %s", code, data)
	}
	var off ingestResponse
	if err := json.Unmarshal(data, &off); err != nil {
		t.Fatal(err)
	}
	if off.Accepted != 7 || off.Kept != 4 {
		t.Errorf("binary ingest: %+v, want accepted=7 kept=4", off)
	}

	// Groups take the same frames.
	if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/groups/g",
		map[string]any{"specs": []string{"systematic:interval=2", "systematic:interval=4"}}); code != http.StatusCreated {
		t.Fatal("group create failed")
	}
	code, data = postRaw(t, client, srv.URL+"/v1/groups/g/ticks", wire.ContentType,
		mustFrame(t, "g", []float64{1, 2, 3, 4}))
	if code != http.StatusOK {
		t.Fatalf("binary group ingest: %d %s", code, data)
	}
	if err := json.Unmarshal(data, &off); err != nil {
		t.Fatal(err)
	}
	if off.Accepted != 4 || off.Kept != 3 {
		t.Errorf("binary group ingest: %+v, want accepted=4 kept=3", off)
	}

	code, metrics := doJSON(t, client, http.MethodGet, srv.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(string(metrics), "sampled_ingest_frames_total 4") {
		t.Errorf("metrics missing sampled_ingest_frames_total 4:\n%s", metrics)
	}
	wantBytes := fmt.Sprintf("sampled_ingest_bytes_total %d", len(body)+len(mustFrame(t, "g", []float64{1, 2, 3, 4})))
	if !strings.Contains(string(metrics), wantBytes) {
		t.Errorf("metrics missing %q:\n%s", wantBytes, metrics)
	}
}

// TestBinaryErrorMapping pins the wire's failure statuses on all three
// frame paths — a binary POST, a session on the daemon and a session
// through a router: corruption and routing mistakes are 400s, anything
// oversized — a frame whose declared batch blows the tick cap, or a
// body over the byte cap — is a 413, and a ghost stream stays a 404,
// through the router too, which passes its backend's verdict through.
// Every error body reports how far the body got.
func TestBinaryErrorMapping(t *testing.T) {
	// maxBody 256 gives maxTicks 32 — small enough to trip on purpose.
	daemon := httptest.NewServer(newServer(hub.New(), 256))
	defer daemon.Close()
	logger, _ := obs.NewLogger(io.Discard, "text", "error")
	rt, err := newRouter([]string{daemon.URL}, 32, logger, nil)
	if err != nil {
		t.Fatal(err)
	}
	routed := httptest.NewServer(rt.handler())
	defer routed.Close()
	client := daemon.Client()

	badMagic := mustFrame(t, "", []float64{1})
	badMagic[0] ^= 0xff
	truncated := mustFrame(t, "", []float64{1, 2})[:12]
	oversized := mustFrame(t, "", make([]float64, 33))
	good := []float64{1, 2, 3} // the frame before each offender

	// check posts body to url and wants status, with an error body
	// reporting frames frames of good before the failure.
	check := func(name, url string, body []byte, status, frames int) {
		t.Helper()
		code, data := postRaw(t, client, url, wire.ContentType, body)
		var resp ingestResponse
		if err := json.Unmarshal(data, &resp); err != nil || code != status || resp.Error == "" ||
			resp.Frames != int64(frames) || resp.Accepted != int64(frames*len(good)) {
			t.Errorf("%s: got %d %s, want %d with an error after %d frames of %d ticks", name, code, data, status, frames, len(good))
		}
	}

	post := func(id string) string { return daemon.URL + "/v1/streams/" + id + "/ticks" }
	session := func(base string) func(string) string {
		return func(string) string { return base + "/v1/session" }
	}
	anonymous := func(string) string { return "" }
	named := func(id string) string { return id }
	for _, tg := range []struct {
		id        string                 // the target's stream, which it names
		url       func(id string) string // where frames for id go
		frameID   func(id string) string // the id a frame for id embeds
		misrouted []byte                 // a frame the target refuses for its id
		ghost     int                    // the status of a frame for a missing stream
		ghostRead int                    // the frames its error body counts
		leak      bool                   // check the stream took exactly the good frames
	}{
		{"post", post, anonymous, mustFrame(t, "other", good), http.StatusNotFound, 0, true},
		{"session", session(daemon.URL), named, mustFrame(t, "", good), http.StatusNotFound, 0, true},
		// The router forwards a frame before its backend judges it: a
		// ghost is a backend refusal found when the upstream session
		// closes, answered with the backend's status and totals. And
		// breaking the upstream session on a bad frame races the
		// backend's read of the good one before it, so what the backend
		// kept is not pinned.
		{"routed", session(routed.URL), named, mustFrame(t, "", good), http.StatusNotFound, 0, false},
	} {
		if code, _ := doJSON(t, client, http.MethodPut, daemon.URL+"/v1/streams/"+tg.id,
			map[string]any{"spec": "systematic:interval=2"}); code != http.StatusCreated {
			t.Fatalf("create %s failed", tg.id)
		}
		url, prefix := tg.url(tg.id), mustFrame(t, tg.frameID(tg.id), good)
		check(tg.id+": bad magic", url, bytes.Join([][]byte{prefix, badMagic}, nil), http.StatusBadRequest, 1)
		check(tg.id+": truncated frame", url, bytes.Join([][]byte{prefix, truncated}, nil), http.StatusBadRequest, 1)
		check(tg.id+": oversized frame", url, bytes.Join([][]byte{prefix, oversized}, nil), http.StatusRequestEntityTooLarge, 1)
		check(tg.id+": misrouted frame", url, bytes.Join([][]byte{prefix, tg.misrouted}, nil), http.StatusBadRequest, 1)
		check(tg.id+": ghost stream", tg.url("ghost"), mustFrame(t, tg.frameID("ghost"), good), tg.ghost, tg.ghostRead)
		if !tg.leak {
			continue
		}
		// Rejected bodies must not have leaked partial batches: only
		// the good frame before each failure counts.
		code, data := doJSON(t, client, http.MethodGet, daemon.URL+"/v1/streams/"+tg.id+"/snapshot", nil)
		if want := fmt.Sprintf(`"seen":%d`, 4*len(good)); code != http.StatusOK || !strings.Contains(string(data), want) {
			t.Errorf("%s: rejected frames leaked ticks: %d %s, want %s", tg.id, code, data, want)
		}
	}
	check("post: empty body to ghost", post("ghost"), nil, http.StatusNotFound, 0)

	// A router with no healthy backend refuses every session frame.
	rt.ring.Store(cluster.NewRing(nil))
	check("routed: no healthy backend", routed.URL+"/v1/session", mustFrame(t, "routed", good), http.StatusServiceUnavailable, 0)
}

// TestBinaryBodyCapProgress: a body over -max-body ingests exactly the
// frames that lie wholly under the cap and then answers 413, whether
// the cap falls mid-frame or on a frame boundary. The decoder reads
// ahead of the frame it decodes, so the cap's error must still surface
// at the first frame that needs bytes past it.
func TestBinaryBodyCapProgress(t *testing.T) {
	frame := mustFrame(t, "", []float64{1, 2, 3, 4, 5, 6, 7, 8})
	body := bytes.Repeat(frame, 5)
	for _, tc := range []struct {
		maxBody int
		whole   int // frames wholly under the cap
	}{
		{3*len(frame) + len(frame)/2, 3},
		{3 * len(frame), 3},
		{4*len(frame) + 1, 4},
		{len(frame) - 1, 0},
	} {
		srv := httptest.NewServer(newServer(hub.New(), int64(tc.maxBody)))
		client := srv.Client()
		if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/s",
			map[string]any{"spec": "systematic:interval=2"}); code != http.StatusCreated {
			t.Fatal("create failed")
		}
		code, data := postRaw(t, client, srv.URL+"/v1/streams/s/ticks", wire.ContentType, body)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("cap %d: got %d (%s), want 413", tc.maxBody, code, data)
		}
		code, data = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams/s/snapshot", nil)
		if want := fmt.Sprintf(`"seen":%d`, 8*tc.whole); code != http.StatusOK || !strings.Contains(string(data), want) {
			t.Errorf("cap %d: snapshot %d %s, want %s", tc.maxBody, code, data, want)
		}
		srv.Close()
	}
}

// TestSessionIngest drives the persistent streaming mode: one
// connection carrying frames for several streams, totals at EOF, and
// the failure edges (wrong content type, anonymous frame, ghost
// stream) reporting how far the session got.
func TestSessionIngest(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()

	for _, id := range []string{"a", "b"} {
		if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/"+id,
			map[string]any{"spec": "systematic:interval=2"}); code != http.StatusCreated {
			t.Fatalf("create %s failed", id)
		}
	}

	var body []byte
	for i := 0; i < 4; i++ {
		body = append(body, mustFrame(t, "a", []float64{1, 2, 3, 4})...)
		body = append(body, mustFrame(t, "b", []float64{5, 6})...)
	}
	code, data := postRaw(t, client, srv.URL+"/v1/session", wire.ContentType, body)
	if code != http.StatusOK {
		t.Fatalf("session: %d %s", code, data)
	}
	var resp ingestResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Frames != 8 || resp.Accepted != 24 || resp.Kept != 12 {
		t.Errorf("session totals: %+v, want frames=8 accepted=24 kept=12", resp)
	}
	code, data = doJSON(t, client, http.MethodGet, srv.URL+"/v1/streams/a/snapshot", nil)
	if code != http.StatusOK || !strings.Contains(string(data), `"seen":16`) {
		t.Errorf("stream a after session: %d %s", code, data)
	}

	// Wrong content type: 415 before any frame is read.
	code, data = postRaw(t, client, srv.URL+"/v1/session", "application/json", []byte("[1,2]"))
	if code != http.StatusUnsupportedMediaType {
		t.Errorf("json session body: %d %s, want 415", code, data)
	}

	// Mid-session failures report the totals so far: two good frames,
	// then the offender.
	fail := func(name string, offender []byte, want int) {
		t.Helper()
		body := append(mustFrame(t, "a", []float64{1}), mustFrame(t, "b", []float64{2})...)
		body = append(body, offender...)
		code, data := postRaw(t, client, srv.URL+"/v1/session", wire.ContentType, body)
		if code != want {
			t.Errorf("%s: got %d (%s), want %d", name, code, data, want)
		}
		if !strings.Contains(string(data), `"frames":2`) {
			t.Errorf("%s: error body hides the session's progress: %s", name, data)
		}
	}
	fail("anonymous frame", mustFrame(t, "", []float64{1}), http.StatusBadRequest)
	fail("ghost stream", mustFrame(t, "ghost", []float64{1}), http.StatusNotFound)
	// Corruption arrives in the same reads as the good frames before
	// it; those still count, and the session stops at the offender.
	corrupt := mustFrame(t, "a", []float64{1, 2})
	corrupt[len(corrupt)-1] ^= 0xff
	fail("corrupt frame", corrupt, http.StatusBadRequest)
	fail("truncated frame", mustFrame(t, "a", []float64{1, 2})[:20], http.StatusBadRequest)
	fail("nan tick", mustFrame(t, "a", []float64{1, math.NaN()}), http.StatusBadRequest)
}

// newMeteredServer builds the daemon's server state without its HTTP
// routes, so a test can drive readFrames with the daemon's own meters.
func newMeteredServer(h *hub.Hub) *server {
	s := &server{hub: h, reg: obs.NewRegistry()}
	s.registerMetrics()
	return s
}

// TestDecodeTimeExcludesSenderStall: a session whose client stalls for
// 100 ms inside a frame records the frame's decode, not the stall.
// Every frame is sampled here, so each one's decode time is observed.
func TestDecodeTimeExcludesSenderStall(t *testing.T) {
	h := hub.New()
	if err := h.Create("a", sampling.MustParse("systematic:interval=2")); err != nil {
		t.Fatal(err)
	}
	s := newMeteredServer(h)
	m := *s.sessionFrames
	m.gap = func() int { return 1 }
	f := mustFrame(t, "a", make([]float64, 64))
	pr, pw := io.Pipe()
	go func() {
		pw.Write(f)
		pw.Write(f[:len(f)/2])
		time.Sleep(100 * time.Millisecond)
		pw.Write(f[len(f)/2:])
		pw.Write(f)
		pw.Close()
	}()
	resp, err := readFrames(wire.NewDecoder(pr, 0), &m, s.offerSession)
	if err != nil || resp.Frames != 3 {
		t.Fatalf("session: %+v, %v; want 3 frames", resp, err)
	}
	if n := m.hist.decode.Count(); n != 3 {
		t.Fatalf("%d decode observations, want 3", n)
	}
	// Quantile(1) is the upper edge of the slowest observation's bucket.
	if worst := m.hist.decode.Quantile(1); worst >= 0.1 {
		t.Errorf("slowest decode observed in a bucket reaching %g s: the sender's stall was timed", worst)
	}
}

// TestSessionHistogramsSampled: on the binary wires the frame and byte
// counters are exact at the end of a body, while the ingest histograms
// see about one frame in frameSample.
func TestSessionHistogramsSampled(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()
	if code, _ := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/a",
		map[string]any{"spec": "systematic:interval=2"}); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	const frames = 2048 // a sample of about 32; none at all has odds e^-32
	f := mustFrame(t, "a", []float64{1})
	body := bytes.Repeat(f, frames)
	if code, data := postRaw(t, client, srv.URL+"/v1/session", wire.ContentType, body); code != http.StatusOK {
		t.Fatalf("session: %d %s", code, data)
	}
	_, metrics := doJSON(t, client, http.MethodGet, srv.URL+"/metrics", nil)
	for _, want := range []string{
		fmt.Sprintf("sampled_ingest_frames_total %d\n", frames),
		fmt.Sprintf("sampled_ingest_bytes_total %d\n", len(body)),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	var counts []int
	for _, name := range []string{"decode_seconds", "frame_bytes", "batch_ticks"} {
		re := regexp.MustCompile(`sampled_ingest_` + name + `_count\{wire="session"\} (\d+)\n`)
		m := re.FindSubmatch(metrics)
		if m == nil {
			t.Fatalf("metrics missing the session %s count", name)
		}
		n, _ := strconv.Atoi(string(m[1]))
		counts = append(counts, n)
	}
	if n := counts[0]; n == 0 || n >= frames/8 || counts[1] != n || counts[2] != n {
		t.Errorf("session histogram counts %v over %d frames, want one sample of about %d",
			counts, frames, frames/frameSample)
	}
}

// TestWireEquivalence is the cross-wire contract: the same tick series
// pushed through JSON, text, binary and a streaming session into
// identically specced streams must leave them byte-for-byte
// indistinguishable — snapshots and final summaries alike.
func TestWireEquivalence(t *testing.T) {
	at := time.Date(2026, 7, 27, 12, 0, 0, 0, time.UTC)
	h := hub.New(hub.WithClock(func() time.Time { return at }))
	srv := httptest.NewServer(newServer(h, 0))
	defer srv.Close()
	client := srv.Client()

	series := heavyTailedSeries(3, 2000)
	const batch = 137
	wires := []string{"json", "text", "binary", "session"}
	for _, w := range wires {
		if code, body := doJSON(t, client, http.MethodPut, srv.URL+"/v1/streams/eq-"+w,
			map[string]any{"spec": "bss:interval=50,L=5,eps=1.0", "estimator": "aggvar"}); code != http.StatusCreated {
			t.Fatalf("create eq-%s: %d %s", w, code, body)
		}
	}

	var sessionBody []byte
	for off := 0; off < len(series); off += batch {
		end := off + batch
		if end > len(series) {
			end = len(series)
		}
		chunk := series[off:end]

		jsonBody, err := json.Marshal(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if code, data := postRaw(t, client, srv.URL+"/v1/streams/eq-json/ticks", "application/json", jsonBody); code != http.StatusOK {
			t.Fatalf("json batch: %d %s", code, data)
		}

		var text []byte
		for i, v := range chunk {
			if i > 0 {
				text = append(text, ' ')
			}
			text = strconv.AppendFloat(text, v, 'g', -1, 64)
		}
		if code, data := postRaw(t, client, srv.URL+"/v1/streams/eq-text/ticks", "text/plain", text); code != http.StatusOK {
			t.Fatalf("text batch: %d %s", code, data)
		}

		if code, data := postRaw(t, client, srv.URL+"/v1/streams/eq-binary/ticks", wire.ContentType,
			mustFrame(t, "", chunk)); code != http.StatusOK {
			t.Fatalf("binary batch: %d %s", code, data)
		}

		sessionBody = append(sessionBody, mustFrame(t, "eq-session", chunk)...)
	}
	if code, data := postRaw(t, client, srv.URL+"/v1/session", wire.ContentType, sessionBody); code != http.StatusOK {
		t.Fatalf("session: %d %s", code, data)
	}

	fetch := func(method, suffix string) map[string][]byte {
		docs := make(map[string][]byte, len(wires))
		for _, w := range wires {
			code, data := doJSON(t, client, method, srv.URL+"/v1/streams/eq-"+w+suffix, nil)
			if code != http.StatusOK {
				t.Fatalf("%s eq-%s%s: %d %s", method, w, suffix, code, data)
			}
			docs[w] = data
		}
		return docs
	}
	snaps := fetch(http.MethodGet, "/snapshot")
	for _, w := range wires[1:] {
		if !bytes.Equal(snaps[w], snaps["json"]) {
			t.Errorf("%s snapshot diverges from json:\n %s\n %s", w, snaps[w], snaps["json"])
		}
	}
	// The final document — summary plus end-of-stream samples — must
	// agree too: the wire cannot change which ticks a technique keeps.
	finals := fetch(http.MethodDelete, "")
	for _, w := range wires[1:] {
		if !bytes.Equal(finals[w], finals["json"]) {
			t.Errorf("%s final summary diverges from json:\n %s\n %s", w, finals[w], finals["json"])
		}
	}
	var fin finishResponse
	if err := json.Unmarshal(finals["json"], &fin); err != nil {
		t.Fatal(err)
	}
	if fin.Summary.Seen != len(series) || fin.Summary.Kept == 0 {
		t.Errorf("equivalence run was degenerate: seen=%d kept=%d", fin.Summary.Seen, fin.Summary.Kept)
	}
}

// BenchmarkServeTicks measures end-to-end ingest over loopback HTTP —
// the daemon-side cost of each wire, request handling included. The
// session variant amortizes connection and response costs over the
// whole run, which is exactly its pitch. group-aggvar is the serving
// benchmark's groups-estimator shape behind the same HTTP path: its
// five specs with an aggvar estimator, fed 8192-tick binary POSTs of
// fGn (H=0.8) traffic.
func BenchmarkServeTicks(b *testing.B) {
	const batch = 512
	ticks := make([]float64, batch)
	for i := range ticks {
		ticks[i] = float64(i%97) * 1.5
	}

	newTarget := func(b *testing.B) (*httptest.Server, *http.Client) {
		b.Helper()
		srv := httptest.NewServer(newServer(hub.New(), 0))
		b.Cleanup(srv.Close)
		client := srv.Client()
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/streams/s",
			strings.NewReader(`{"spec": "systematic:interval=100"}`))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("create: %d", resp.StatusCode)
		}
		return srv, client
	}
	post := func(b *testing.B, client *http.Client, url, ctype string, body []byte) {
		b.Helper()
		resp, err := client.Post(url, ctype, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest: %d", resp.StatusCode)
		}
	}
	reportTicks := func(b *testing.B) {
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N)*batch/s, "ticks/s")
		}
	}

	jsonBody, err := json.Marshal(ticks)
	if err != nil {
		b.Fatal(err)
	}
	var textBody []byte
	for i, v := range ticks {
		if i > 0 {
			textBody = append(textBody, ' ')
		}
		textBody = strconv.AppendFloat(textBody, v, 'g', -1, 64)
	}
	perPost := []struct {
		name  string
		ctype string
		body  []byte
	}{
		{"json", "application/json", jsonBody},
		{"text", "text/plain", textBody},
		{"binary", wire.ContentType, mustFrame(b, "", ticks)},
	}
	for _, tc := range perPost {
		b.Run(tc.name, func(b *testing.B) {
			srv, client := newTarget(b)
			url := srv.URL + "/v1/streams/s/ticks"
			b.SetBytes(int64(len(tc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, client, url, tc.ctype, tc.body)
			}
			reportTicks(b)
		})
	}

	b.Run("group-aggvar", func(b *testing.B) {
		const groupBatch = 8192
		gen, err := lrd.NewFGN(0.8, 1<<16, 100, 20)
		if err != nil {
			b.Fatal(err)
		}
		f := gen.Generate(dist.NewRand(5))
		bodies := make([][]byte, len(f)/groupBatch)
		for i := range bodies {
			bodies[i] = mustFrame(b, "", f[i*groupBatch:(i+1)*groupBatch])
		}
		srv := httptest.NewServer(newServer(hub.New(), 0))
		b.Cleanup(srv.Close)
		client := srv.Client()
		create, err := json.Marshal(map[string]any{"estimator": "aggvar", "specs": []string{
			"systematic:interval=100,offset=7",
			"stratified:interval=100,seed=11",
			"bernoulli:rate=0.01,seed=12",
			"simple:n=1000,seed=13",
			"bss:interval=100,L=5,eps=1.0,offset=3",
		}})
		if err != nil {
			b.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/groups/g", bytes.NewReader(create))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("create group: %d", resp.StatusCode)
		}
		url := srv.URL + "/v1/groups/g/ticks"
		b.SetBytes(int64(len(bodies[0])))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, client, url, wire.ContentType, bodies[i%len(bodies)])
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N)*groupBatch/s, "ticks/s")
		}
	})

	b.Run("session", func(b *testing.B) {
		srv, client := newTarget(b)
		pr, pw := io.Pipe()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/session", pr)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentType)
		var wg sync.WaitGroup
		wg.Add(1)
		var status int
		go func() {
			defer wg.Done()
			resp, err := client.Do(req)
			if err != nil {
				pr.CloseWithError(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}()
		// Buffer the pipe as a real client's socket would: without it,
		// every frame is a synchronous writer-to-reader handoff and the
		// benchmark measures goroutine wakeups instead of the wire.
		bw := bufio.NewWriterSize(pw, 64<<10)
		enc := wire.NewEncoder(bw)
		frame := mustFrame(b, "s", ticks)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode("s", ticks); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		pw.Close()
		wg.Wait()
		reportTicks(b)
		if status != http.StatusOK {
			b.Fatalf("session: %d", status)
		}
	})
}

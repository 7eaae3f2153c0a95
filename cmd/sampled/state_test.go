package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/sampling"
	"repro/sampling/hub"
	"repro/sampling/wire"
)

// bootDaemon runs the daemon with the given extra flags on a loopback
// port and returns its base URL, a stop function (graceful shutdown,
// waits for exit) and the exit error channel.
func bootDaemon(t *testing.T, extra ...string) (base string, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { done <- run(ctx, args, ready) }()
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	stop = func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			return fmt.Errorf("daemon did not exit")
		}
	}
	return base, stop
}

// getStatus fetches url and returns the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// snapshotDoc pulls the summary fields the durability tests compare.
type snapshotDoc struct {
	Seen      int64 `json:"seen"`
	Kept      int64 `json:"kept"`
	Qualified int64 `json:"qualified"`
}

// groupDoc is the part of a group's comparison document a handoff must
// carry over exactly: the input tick count and every member's counters.
type groupDoc struct {
	Seen    int64 `json:"seen"`
	Members []struct {
		Summary snapshotDoc `json:"summary"`
	} `json:"members"`
}

func getGroupDoc(t *testing.T, base, id string) groupDoc {
	t.Helper()
	status, body := doJSON(t, http.DefaultClient, http.MethodGet, base+"/v1/groups/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("group %s: status %d: %s", id, status, body)
	}
	var doc groupDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Members) == 0 {
		t.Fatalf("group %s: comparison carries no members: %s", id, body)
	}
	return doc
}

func getSnapshot(t *testing.T, base, id string) snapshotDoc {
	t.Helper()
	status, body := doJSON(t, http.DefaultClient, http.MethodGet, base+"/v1/streams/"+id+"/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("snapshot %s: status %d: %s", id, status, body)
	}
	var doc snapshotDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestHealthReadyEndpoints: both probes answer on a plain daemon.
func TestHealthReadyEndpoints(t *testing.T) {
	base, stop := bootDaemon(t)
	defer stop()
	if got := getStatus(t, base+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := getStatus(t, base+"/readyz"); got != http.StatusOK {
		t.Fatalf("readyz = %d", got)
	}
}

// TestStateEndpoints drives the per-stream state resource over HTTP:
// export, install under a new id (identical snapshots), detach
// (stream gone, blob comes back), and the corrupt-blob 400.
func TestStateEndpoints(t *testing.T) {
	base, stop := bootDaemon(t)
	defer stop()
	client := http.DefaultClient

	status, body := doJSON(t, client, http.MethodPut, base+"/v1/streams/orig",
		map[string]any{"spec": "bernoulli:rate=0.1,seed=7", "estimator": "aggvar"})
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	series := heavyTailedSeries(3, 4000)
	if status, body = doJSON(t, client, http.MethodPost, base+"/v1/streams/orig/ticks", series); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}

	resp, err := client.Get(base + "/v1/streams/orig/state")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("state export: %d, %d bytes", resp.StatusCode, len(blob))
	}

	req, _ := http.NewRequest(http.MethodPut, base+"/v1/streams/copy/state", bytes.NewReader(blob))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("state install: %d", resp.StatusCode)
	}
	a, b := getSnapshot(t, base, "orig"), getSnapshot(t, base, "copy")
	if a != b {
		t.Fatalf("installed copy diverges: %+v vs %+v", b, a)
	}

	// Both must keep identical counters over an identical suffix —
	// the restored engine carries the exact RNG position.
	suffix := heavyTailedSeries(4, 2000)
	for _, id := range []string{"orig", "copy"} {
		if status, body = doJSON(t, client, http.MethodPost, base+"/v1/streams/"+id+"/ticks", suffix); status != http.StatusOK {
			t.Fatalf("suffix ingest %s: %d %s", id, status, body)
		}
	}
	a, b = getSnapshot(t, base, "orig"), getSnapshot(t, base, "copy")
	if a != b {
		t.Fatalf("copy diverges after suffix: %+v vs %+v", b, a)
	}

	// Detach: blob returned, stream gone.
	req, _ = http.NewRequest(http.MethodDelete, base+"/v1/streams/copy/state", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	detached, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(detached) == 0 {
		t.Fatalf("detach: %d, %d bytes", resp.StatusCode, len(detached))
	}
	if status, _ = doJSON(t, client, http.MethodGet, base+"/v1/streams/copy/snapshot", nil); status != http.StatusNotFound {
		t.Fatalf("detached stream still answers: %d", status)
	}

	// A corrupt blob is a 400, a duplicate id a 409.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x20
	req, _ = http.NewRequest(http.MethodPut, base+"/v1/streams/bad/state", bytes.NewReader(bad))
	resp, _ = client.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt install: %d, want 400", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, base+"/v1/streams/orig/state", bytes.NewReader(blob))
	resp, _ = client.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate install: %d, want 409", resp.StatusCode)
	}
}

// TestCheckpointRestartCycle is the zero-downtime restart invariant
// end to end over the real run() path: ingest, graceful shutdown
// (final checkpoint), reboot from the checkpoint dir, and require the
// restored daemon to carry identical counters AND produce identical
// kept counts over an identical suffix — against a control daemon
// that never stopped.
func TestCheckpointRestartCycle(t *testing.T) {
	dir := t.TempDir()
	client := http.DefaultClient
	specs := map[string]map[string]any{
		"sys": {"spec": "systematic:interval=50"},
		"ber": {"spec": "bernoulli:rate=0.02,seed=9"},
		"res": {"spec": "simple:n=64,seed=9"},
		"est": {"spec": "stratified:interval=64,seed=9", "estimator": "aggvar"},
	}
	series := heavyTailedSeries(11, 20000)
	cut := 12000

	base, stop := bootDaemon(t, "-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	ctrlBase, ctrlStop := bootDaemon(t)
	defer ctrlStop()
	for _, b := range []string{base, ctrlBase} {
		for id, req := range specs {
			if status, body := doJSON(t, client, http.MethodPut, b+"/v1/streams/"+id, req); status != http.StatusCreated {
				t.Fatalf("create %s: %d %s", id, status, body)
			}
			if status, body := doJSON(t, client, http.MethodPost, b+"/v1/streams/"+id+"/ticks", series[:cut]); status != http.StatusOK {
				t.Fatalf("ingest %s: %d %s", id, status, body)
			}
		}
	}
	before := map[string]snapshotDoc{}
	for id := range specs {
		before[id] = getSnapshot(t, base, id)
	}

	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "hub.ckpt")); err != nil {
		t.Fatalf("no checkpoint after shutdown: %v", err)
	}

	base2, stop2 := bootDaemon(t, "-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	defer stop2()
	for id := range specs {
		if got := getSnapshot(t, base2, id); got != before[id] {
			t.Fatalf("stream %s after restart: %+v, want %+v", id, got, before[id])
		}
	}
	// The restored process must keep sampling exactly as the control
	// that never restarted.
	for id := range specs {
		for _, b := range []string{base2, ctrlBase} {
			if status, body := doJSON(t, client, http.MethodPost, b+"/v1/streams/"+id+"/ticks", series[cut:]); status != http.StatusOK {
				t.Fatalf("suffix ingest %s: %d %s", id, status, body)
			}
		}
		restarted, control := getSnapshot(t, base2, id), getSnapshot(t, ctrlBase, id)
		if restarted != control {
			t.Fatalf("stream %s diverged after restart: %+v vs control %+v", id, restarted, control)
		}
	}
	// The Hurst ladder survives too: the estimator stream reports the
	// same H from both processes.
	for _, pair := range []struct{ b, name string }{{base2, "restarted"}, {ctrlBase, "control"}} {
		if status, _ := doJSON(t, client, http.MethodGet, pair.b+"/v1/streams/est/hurst", nil); status != http.StatusOK {
			t.Fatalf("%s hurst: %d", pair.name, status)
		}
	}
	_, hr := doJSON(t, client, http.MethodGet, base2+"/v1/streams/est/hurst", nil)
	_, hc := doJSON(t, client, http.MethodGet, ctrlBase+"/v1/streams/est/hurst", nil)
	if string(hr) != string(hc) {
		t.Fatalf("hurst diverged after restart:\n restarted: %s\n control:   %s", hr, hc)
	}
}

// TestEvictArchive: with -checkpoint-dir and a TTL, a swept stream's
// final state lands under evicted/ and still restores into an engine.
func TestEvictArchive(t *testing.T) {
	dir := t.TempDir()
	base, stop := bootDaemon(t,
		"-checkpoint-dir", dir, "-checkpoint-interval", "1h",
		"-ttl", "200ms")
	defer stop()
	client := http.DefaultClient
	if status, body := doJSON(t, client, http.MethodPut, base+"/v1/streams/fleeting",
		map[string]any{"spec": "systematic:interval=10"}); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if status, _ := doJSON(t, client, http.MethodPost, base+"/v1/streams/fleeting/ticks", heavyTailedSeries(2, 500)); status != http.StatusOK {
		t.Fatal("ingest failed")
	}
	path := filepath.Join(dir, "evicted", "fleeting.engine")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted stream was never archived")
		}
		time.Sleep(50 * time.Millisecond)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sampling.RestoreEngine(blob)
	if err != nil {
		t.Fatalf("archived blob does not restore: %v", err)
	}
	if got := eng.Snapshot().Seen; got != 500 {
		t.Fatalf("archived engine saw %d ticks, want 500", got)
	}
}

// TestEvictArchiveAtomic: a poller reading evicted/ while Sweep
// archives a batch of idle streams only ever sees whole blobs, and no
// temp file outlives the sweep.
func TestEvictArchiveAtomic(t *testing.T) {
	dir := t.TempDir()
	var now atomic.Int64
	clock := func() time.Time { return time.Unix(0, now.Load()) }
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := hub.New(hub.WithClock(clock), hub.WithIdleTTL(time.Minute),
		hub.WithEvictHook(archiveEvicted(dir, logger)))
	const streams, ticks = 32, 20000
	series := heavyTailedSeries(3, ticks)
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("idle-%02d", i)
		if err := h.Create(id, sampling.MustParse("simple:rate=0.5,seed=1")); err != nil {
			t.Fatal(err)
		}
		if _, err := h.OfferBatch(id, series); err != nil {
			t.Fatal(err)
		}
	}

	archive := filepath.Join(dir, "evicted")
	done := make(chan struct{})
	refused := make(chan error, 1)
	go func() {
		defer close(refused)
		for {
			select {
			case <-done:
				return
			default:
			}
			entries, _ := os.ReadDir(archive)
			for _, e := range entries {
				if !strings.HasSuffix(e.Name(), ".engine") {
					continue
				}
				blob, err := os.ReadFile(filepath.Join(archive, e.Name()))
				if err != nil {
					continue // not yet renamed into place
				}
				if _, err := sampling.RestoreEngine(blob); err != nil {
					refused <- fmt.Errorf("%s: %w", e.Name(), err)
					return
				}
			}
		}
	}()
	now.Add(int64(2 * time.Minute))
	if n := h.Sweep(); n != streams {
		t.Errorf("swept %d streams, want %d", n, streams)
	}
	close(done)
	if err := <-refused; err != nil {
		t.Fatalf("poller saw a partial archive: %v", err)
	}

	entries, err := os.ReadDir(archive)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != streams {
		t.Errorf("evicted/ holds %d files, want %d", len(entries), streams)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".engine") {
			t.Errorf("stray file %s left in evicted/", e.Name())
			continue
		}
		blob, err := os.ReadFile(filepath.Join(archive, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sampling.RestoreEngine(blob)
		if err != nil {
			t.Fatalf("%s does not restore: %v", e.Name(), err)
		}
		if got := eng.Snapshot().Seen; got != ticks {
			t.Errorf("%s saw %d ticks, want %d", e.Name(), got, ticks)
		}
	}
}

// TestRouterEndToEnd boots two real backends and a router over them,
// then drives every wire through the router: creates, JSON ingest,
// binary ingest, a persistent session demuxed per frame, snapshots,
// merged listings and router metrics. The aggregate must balance:
// every stream's Seen equals everything ingested for it, and the two
// backends together hold exactly the created streams.
func TestRouterEndToEnd(t *testing.T) {
	b1, stop1 := bootDaemon(t)
	defer stop1()
	b2, stop2 := bootDaemon(t)
	defer stop2()
	routerBase, stopRouter := bootDaemon(t, "-route",
		strings.TrimPrefix(b1, "http://")+","+strings.TrimPrefix(b2, "http://"))
	defer stopRouter()
	client := http.DefaultClient

	if got := getStatus(t, routerBase+"/readyz"); got != http.StatusOK {
		t.Fatalf("router readyz = %d", got)
	}

	const streams = 8
	const ticksEach = 600
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("flow-%02d", i)
		if status, body := doJSON(t, client, http.MethodPut, routerBase+"/v1/streams/"+ids[i],
			map[string]any{"spec": "systematic:interval=7"}); status != http.StatusCreated {
			t.Fatalf("create via router: %d %s", status, body)
		}
	}
	series := heavyTailedSeries(21, ticksEach)
	// Half the ingest as JSON, half as one persistent session carrying
	// frames for every stream interleaved.
	for _, id := range ids {
		if status, body := doJSON(t, client, http.MethodPost, routerBase+"/v1/streams/"+id+"/ticks", series[:ticksEach/2]); status != http.StatusOK {
			t.Fatalf("ingest via router: %d %s", status, body)
		}
	}
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	frames := int64(0)
	for off := ticksEach / 2; off < ticksEach; off += 100 {
		for _, id := range ids {
			end := off + 100
			if end > ticksEach {
				end = ticksEach
			}
			if err := enc.Encode(id, series[off:end]); err != nil {
				t.Fatal(err)
			}
			frames++
		}
	}
	req, _ := http.NewRequest(http.MethodPost, routerBase+"/v1/session", bytes.NewReader(buf.Bytes()))
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sessionBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session via router: %d %s", resp.StatusCode, sessionBody)
	}
	var sr ingestResponse
	if err := json.Unmarshal(sessionBody, &sr); err != nil {
		t.Fatal(err)
	}
	// The answer is the backends' summed totals.
	if sr.Accepted != int64(streams*ticksEach/2) || sr.Frames != frames {
		t.Fatalf("session took %d frames of %d ticks, want %d of %d", sr.Frames, sr.Accepted, frames, streams*ticksEach/2)
	}

	// Every stream is fully fed, wherever it landed.
	for _, id := range ids {
		if got := getSnapshot(t, routerBase, id); got.Seen != int64(ticksEach) {
			t.Fatalf("stream %s saw %d ticks via router, want %d", id, got.Seen, ticksEach)
		}
	}
	// The merged listing covers exactly the created streams, and both
	// backends hold a share (8 ids over 2 nodes — a placement that
	// lands everything on one node would be a broken ring).
	status, body := doJSON(t, client, http.MethodGet, routerBase+"/v1/streams", nil)
	if status != http.StatusOK {
		t.Fatalf("merged list: %d", status)
	}
	var listDoc struct {
		Streams []string `json:"streams"`
		Count   int      `json:"count"`
	}
	if err := json.Unmarshal(body, &listDoc); err != nil {
		t.Fatal(err)
	}
	if listDoc.Count != streams {
		t.Fatalf("merged list has %d streams, want %d: %v", listDoc.Count, streams, listDoc.Streams)
	}
	var n1, n2 int
	for _, b := range []string{b1, b2} {
		_, lb := doJSON(t, client, http.MethodGet, b+"/v1/streams", nil)
		var part struct {
			Count int `json:"count"`
		}
		json.Unmarshal(lb, &part)
		if b == b1 {
			n1 = part.Count
		} else {
			n2 = part.Count
		}
	}
	if n1+n2 != streams || n1 == 0 || n2 == 0 {
		t.Fatalf("placement %d/%d over two backends, want a split of %d", n1, n2, streams)
	}

	// Router metrics expose membership and forwarding.
	resp, err = client.Get(routerBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"sampled_router_backends_up 2", "sampled_router_requests_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("router metrics missing %q", want)
		}
	}
}

// TestRouterHandoff is the membership-change invariant: streams
// created while a backend is down move onto it — with their counters
// intact — once it comes up, via checkpoint transfer.
func TestRouterHandoff(t *testing.T) {
	b1, stop1 := bootDaemon(t)
	defer stop1()
	// Reserve a port for the late backend so the router can be
	// configured with its address before it exists.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := ln.Addr().String()
	ln.Close()

	logger, _ := obs.NewLogger(io.Discard, "text", "error")
	rt, err := newRouter([]string{strings.TrimPrefix(b1, "http://"), lateAddr}, 1<<20, logger, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.checkHealth(ctx) // late backend is down: ring is just b1
	if rt.ring.Load().Len() != 1 {
		t.Fatalf("ring has %d members with one backend down", rt.ring.Load().Len())
	}
	routerSrv := httptest.NewServer(rt.handler())
	defer routerSrv.Close()
	client := http.DefaultClient

	const streams = 10
	series := heavyTailedSeries(31, 800)
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("ho-%02d", i)
		if status, body := doJSON(t, client, http.MethodPut, routerSrv.URL+"/v1/streams/"+ids[i],
			map[string]any{"spec": fmt.Sprintf("bernoulli:rate=0.05,seed=%d", i+1)}); status != http.StatusCreated {
			t.Fatalf("create: %d %s", status, body)
		}
		if status, _ := doJSON(t, client, http.MethodPost, routerSrv.URL+"/v1/streams/"+ids[i]+"/ticks", series); status != http.StatusOK {
			t.Fatal("ingest failed")
		}
	}
	before := map[string]snapshotDoc{}
	for _, id := range ids {
		before[id] = getSnapshot(t, routerSrv.URL, id)
	}
	// Comparison groups ride the same handoff as streams.
	const groups = 16
	gids := make([]string, groups)
	beforeGroups := map[string]groupDoc{}
	for i := range gids {
		gids[i] = fmt.Sprintf("hg-%02d", i)
		if status, body := doJSON(t, client, http.MethodPut, routerSrv.URL+"/v1/groups/"+gids[i],
			map[string]any{"specs": []string{"systematic:interval=7",
				fmt.Sprintf("bernoulli:rate=0.05,seed=%d", 100+i), fmt.Sprintf("simple:n=20,seed=%d", 100+i)}}); status != http.StatusCreated {
			t.Fatalf("create group: %d %s", status, body)
		}
		if status, _ := doJSON(t, client, http.MethodPost, routerSrv.URL+"/v1/groups/"+gids[i]+"/ticks", series); status != http.StatusOK {
			t.Fatal("group ingest failed")
		}
		beforeGroups[gids[i]] = getGroupDoc(t, routerSrv.URL, gids[i])
	}

	// The late backend comes up; the next health round must eject
	// nothing, admit it, and move its share of streams over.
	b2, stop2 := bootDaemon(t, "-addr", lateAddr)
	defer stop2()
	rt.checkHealth(ctx)
	if rt.ring.Load().Len() != 2 {
		t.Fatal("ring did not admit the recovered backend")
	}
	_, lb := doJSON(t, client, http.MethodGet, b2+"/v1/streams", nil)
	var part struct {
		Count int `json:"count"`
	}
	json.Unmarshal(lb, &part)
	if part.Count == 0 {
		t.Fatal("no streams moved to the recovered backend — handoff never happened")
	}
	_, lb = doJSON(t, client, http.MethodGet, b2+"/v1/groups", nil)
	part.Count = 0
	json.Unmarshal(lb, &part)
	if part.Count == 0 {
		t.Fatal("no groups moved to the recovered backend — group handoff never happened")
	}
	for _, id := range gids {
		if got := getGroupDoc(t, routerSrv.URL, id); !reflect.DeepEqual(got, beforeGroups[id]) {
			t.Fatalf("group %s lost state in handoff: %+v, want %+v", id, got, beforeGroups[id])
		}
	}

	// Every stream still answers through the router with its counters
	// exactly as before the rebalance, wherever it lives now.
	for _, id := range ids {
		if got := getSnapshot(t, routerSrv.URL, id); got != before[id] {
			t.Fatalf("stream %s lost state in handoff: %+v, want %+v", id, got, before[id])
		}
	}
	// And it keeps sampling deterministically: same suffix, same kept
	// count as a control engine fed the whole series in one life.
	suffix := heavyTailedSeries(32, 400)
	for _, id := range ids {
		if status, _ := doJSON(t, client, http.MethodPost, routerSrv.URL+"/v1/streams/"+id+"/ticks", suffix); status != http.StatusOK {
			t.Fatalf("suffix ingest %s failed", id)
		}
		got := getSnapshot(t, routerSrv.URL, id)
		if got.Seen != 1200 {
			t.Fatalf("stream %s saw %d, want 1200", id, got.Seen)
		}
	}
}

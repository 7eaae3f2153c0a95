package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/sampling/cluster"
	"repro/sampling/hub"
)

// TestRouterRouteParity: every id-addressed route in the daemon's table
// forwards through the router to a backend. The router forwards by
// namespace (/v1/{collection}/{id} and /v1/{collection}/{id}/{sub});
// a daemon route outside those shapes would fall through to the
// router's "/" catch-all and 404 without reaching any backend.
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

// misplaced picks, for a two-backend ring, an id with the given prefix
// and returns it with its owner and the other backend.
func misplaced(a, b, prefix string) (id, owner, holder string) {
	ring := cluster.NewRing([]string{a, b})
	id = prefix + "-0"
	owner, holder = ring.Lookup(id), a
	if owner == a {
		holder = b
	}
	return id, owner, holder
}

// TestRouterConvergesAfterRestart: a stream and a group held by the
// backend that does not own them — what a router restarted
// mid-rebalance finds — move to their owner on the first probe round,
// though every backend was healthy all along, and answer through the
// router with their state intact.
func TestRouterConvergesAfterRestart(t *testing.T) {
	b1, stop1 := bootDaemon(t)
	defer stop1()
	b2, stop2 := bootDaemon(t)
	defer stop2()
	client := http.DefaultClient
	series := heavyTailedSeries(41, 600)

	sid, sOwner, sHolder := misplaced(b1, b2, "restart-stream")
	if status, body := doJSON(t, client, http.MethodPut, sHolder+"/v1/streams/"+sid,
		map[string]any{"spec": "bernoulli:rate=0.05,seed=3"}); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if status, _ := doJSON(t, client, http.MethodPost, sHolder+"/v1/streams/"+sid+"/ticks", series); status != http.StatusOK {
		t.Fatal("ingest failed")
	}
	gid, gOwner, gHolder := misplaced(b1, b2, "restart-group")
	if status, body := doJSON(t, client, http.MethodPut, gHolder+"/v1/groups/"+gid,
		map[string]any{"specs": []string{"systematic:interval=7", "simple:n=20,seed=9"}}); status != http.StatusCreated {
		t.Fatalf("create group: %d %s", status, body)
	}
	if status, _ := doJSON(t, client, http.MethodPost, gHolder+"/v1/groups/"+gid+"/ticks", series); status != http.StatusOK {
		t.Fatal("group ingest failed")
	}
	before, beforeGroup := getSnapshot(t, sHolder, sid), getGroupDoc(t, gHolder, gid)

	logger, _ := obs.NewLogger(io.Discard, "text", "error")
	rt, err := newRouter([]string{b1, b2}, 1<<20, logger, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.checkHealth(context.Background())
	routerSrv := httptest.NewServer(rt.handler())
	defer routerSrv.Close()

	for _, c := range []struct{ path, owner, holder string }{
		{"/v1/streams/" + sid + "/snapshot", sOwner, sHolder},
		{"/v1/groups/" + gid, gOwner, gHolder},
	} {
		if got := getStatus(t, c.holder+c.path); got != http.StatusNotFound {
			t.Errorf("GET %s on the holder: %d after a probe round, want 404", c.path, got)
		}
		if got := getStatus(t, c.owner+c.path); got != http.StatusOK {
			t.Errorf("GET %s on the owner: %d after a probe round, want 200", c.path, got)
		}
	}
	if got := getSnapshot(t, routerSrv.URL, sid); got != before {
		t.Fatalf("stream through the router: %+v, want %+v", got, before)
	}
	if got := getGroupDoc(t, routerSrv.URL, gid); !reflect.DeepEqual(got, beforeGroup) {
		t.Fatalf("group through the router: %+v, want %+v", got, beforeGroup)
	}
}

// refusingBackend is a daemon that answers its next refuse PUTs of a
// state blob 503 without installing them.
type refusingBackend struct {
	h      http.Handler
	refuse atomic.Int32
}

func (b *refusingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/state") && b.refuse.Add(-1) >= 0 {
		http.Error(w, "injected failure", http.StatusServiceUnavailable)
		return
	}
	b.h.ServeHTTP(w, r)
}

// TestRouterRetriesFailedHandoff: a transfer the owner refuses rolls
// the stream back onto its holder and counts a handoff error; the next
// probe round, with no membership change, finishes the move.
func TestRouterRetriesFailedHandoff(t *testing.T) {
	backends := make(map[string]*refusingBackend)
	var urls []string
	for range 2 {
		b := &refusingBackend{h: newServer(hub.New(), 0)}
		srv := httptest.NewServer(b)
		defer srv.Close()
		backends[srv.URL] = b
		urls = append(urls, srv.URL)
	}
	client := http.DefaultClient
	id, owner, holder := misplaced(urls[0], urls[1], "retry")
	if status, body := doJSON(t, client, http.MethodPut, holder+"/v1/streams/"+id,
		map[string]any{"spec": "systematic:interval=9"}); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if status, _ := doJSON(t, client, http.MethodPost, holder+"/v1/streams/"+id+"/ticks", heavyTailedSeries(43, 500)); status != http.StatusOK {
		t.Fatal("ingest failed")
	}
	before := getSnapshot(t, holder, id)
	backends[owner].refuse.Store(1)

	logger, _ := obs.NewLogger(io.Discard, "text", "error")
	rt, err := newRouter(urls, 1<<20, logger, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	snapshot := "/v1/streams/" + id + "/snapshot"
	rt.checkHealth(ctx)
	if got := getStatus(t, holder+snapshot); got != http.StatusOK {
		t.Fatalf("refused transfer: holder answers %d, want the rolled-back stream (200)", got)
	}
	if n := rt.handoffErrs.Value(); n != 1 {
		t.Fatalf("handoff errors after a refused transfer: %d, want 1", n)
	}

	rt.checkHealth(ctx)
	if got := getStatus(t, holder+snapshot); got != http.StatusNotFound {
		t.Errorf("holder answers %d after the retry round, want 404", got)
	}
	if got := getSnapshot(t, owner, id); got != before {
		t.Fatalf("stream on its owner after the retry: %+v, want %+v", got, before)
	}
	if n := rt.handoffs.Value(); n != 1 {
		t.Fatalf("handoffs after the retry round: %d, want 1", n)
	}
	if rt.ring.Load().Len() != 2 {
		t.Fatalf("ring has %d members, want 2: the retry must not need a membership change", rt.ring.Load().Len())
	}
}

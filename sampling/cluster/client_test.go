package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// statePeer is a minimal in-memory stand-in for sampled's state
// resource: blobs by collection and id ("streams/flow"), with the same
// status conventions (404 on a miss, 409 on a duplicate PUT). It lets
// the client tests exercise the full transfer protocol for both id
// namespaces without booting the daemon.
type statePeer struct {
	mu     sync.Mutex
	blobs  map[string][]byte
	failAt string // method+path that returns 500, for rollback tests
}

func newStatePeer() *statePeer { return &statePeer{blobs: map[string][]byte{}} }

func (p *statePeer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("GET /v1/{coll}", func(w http.ResponseWriter, r *http.Request) {
		coll := r.PathValue("coll")
		p.mu.Lock()
		defer p.mu.Unlock()
		ids := []string{}
		for key := range p.blobs {
			if id, ok := strings.CutPrefix(key, coll+"/"); ok {
				ids = append(ids, id)
			}
		}
		fmt.Fprintf(w, `{%q: %s, "count": %d}`, coll, jsonStrings(ids), len(ids))
	})
	mux.HandleFunc("/v1/{coll}/{id}/state", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("coll") + "/" + r.PathValue("id")
		if p.failAt == r.Method+" "+r.URL.Path {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		switch r.Method {
		case http.MethodDelete:
			blob, ok := p.blobs[key]
			if !ok {
				http.Error(w, "not found", http.StatusNotFound)
				return
			}
			delete(p.blobs, key)
			w.Write(blob)
		case http.MethodPut:
			if _, dup := p.blobs[key]; dup {
				http.Error(w, "exists", http.StatusConflict)
				return
			}
			blob, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			p.blobs[key] = blob
			w.WriteHeader(http.StatusCreated)
		default:
			http.Error(w, "method", http.StatusMethodNotAllowed)
		}
	})
	return mux
}

func jsonStrings(ids []string) string {
	out := "["
	for i, id := range ids {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%q", id)
	}
	return out + "]"
}

// TestTransferStream: for both collections, the happy path moves the
// blob and empties the source; the target failure path rolls the blob
// back onto the source.
func TestTransferStream(t *testing.T) {
	for _, coll := range []string{"streams", "groups"} {
		t.Run(coll, func(t *testing.T) {
			src, dst := newStatePeer(), newStatePeer()
			srcSrv := httptest.NewServer(src.handler())
			defer srcSrv.Close()
			dstSrv := httptest.NewServer(dst.handler())
			defer dstSrv.Close()
			ctx := context.Background()
			c := &StateClient{Client: srcSrv.Client()}

			src.blobs[coll+"/flow"] = []byte("engine-state-bytes")
			if err := Transfer(ctx, c, srcSrv.URL, dstSrv.URL, coll, "flow"); err != nil {
				t.Fatal(err)
			}
			if _, still := src.blobs[coll+"/flow"]; still {
				t.Fatal("source still holds the state after transfer")
			}
			if string(dst.blobs[coll+"/flow"]) != "engine-state-bytes" {
				t.Fatalf("target holds %q", dst.blobs[coll+"/flow"])
			}

			// Rollback: the target refuses, the source must get the blob back.
			src.blobs[coll+"/flow2"] = []byte("more-state")
			dst.failAt = "PUT /v1/" + coll + "/flow2/state"
			if err := Transfer(ctx, c, srcSrv.URL, dstSrv.URL, coll, "flow2"); !errors.Is(err, ErrPeer) {
				t.Fatalf("transfer into a failing target: %v, want ErrPeer", err)
			}
			if string(src.blobs[coll+"/flow2"]) != "more-state" {
				t.Fatal("failed transfer lost the state — rollback did not restore the source")
			}
			if _, leaked := dst.blobs[coll+"/flow2"]; leaked {
				t.Fatal("failed transfer left state on the target")
			}
		})
	}
}

// TestStateClientStatuses: peer error statuses surface as ErrPeer with
// the status visible in the message; ids with path metacharacters
// survive the round trip.
func TestStateClientStatuses(t *testing.T) {
	peer := newStatePeer()
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()
	ctx := context.Background()
	c := &StateClient{Client: srv.Client()}

	if _, err := c.Detach(ctx, srv.URL, "streams", "ghost"); !errors.Is(err, ErrPeer) {
		t.Fatalf("detach of a missing stream: %v, want ErrPeer", err)
	}
	weird := "flow/with spaces#and?marks"
	if err := c.Put(ctx, srv.URL, "streams", weird, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, srv.URL, "streams", weird, []byte("x")); !errors.Is(err, ErrPeer) {
		t.Fatalf("duplicate put: %v, want ErrPeer", err)
	}
	ids, err := c.List(ctx, srv.URL, "streams")
	if err != nil || len(ids) != 1 || ids[0] != weird {
		t.Fatalf("list = %v, %v", ids, err)
	}
	blob, err := c.Detach(ctx, srv.URL, "streams", weird)
	if err != nil || string(blob) != "x" {
		t.Fatalf("escaped id round trip: %q, %v", blob, err)
	}
	if !c.Healthy(ctx, srv.URL) {
		t.Fatal("live peer reads unhealthy")
	}
	if c.Healthy(ctx, "http://127.0.0.1:1") {
		t.Fatal("unreachable peer reads healthy")
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/sampling"
	"repro/sampling/hub"
	"repro/sampling/wire"
)

// handoffSpecs are the serving benchmark's five technique specs, each
// stream carrying an aggvar estimator.
var handoffSpecs = []struct{ name, spec string }{
	{"systematic", "systematic:interval=100"},
	{"stratified", "stratified:interval=100,seed=3"},
	{"bernoulli", "bernoulli:rate=0.01,seed=5"},
	{"simple", "simple:n=1000,seed=7"},
	{"bss", "bss:interval=100,L=5,eps=1.0"},
}

// stateDo sends one request and reads the whole response. It reports
// failures as errors rather than through t, so hammer goroutines can
// call it.
func stateDo(client *http.Client, method, url string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// mustStatus is stateDo for the test goroutine, failing unless the
// response carries want.
func mustStatus(t testing.TB, client *http.Client, method, url string, body []byte, want int) (*http.Response, []byte) {
	t.Helper()
	resp, data, err := stateDo(client, method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: %d %s, want %d", method, url, resp.StatusCode, data, want)
	}
	return resp, data
}

// createFilled creates a stream with an aggvar estimator and feeds it
// ticks over the binary wire.
func createFilled(t testing.TB, client *http.Client, base, id, spec string, ticks []float64) {
	t.Helper()
	body := fmt.Appendf(nil, `{"spec": %q, "estimator": "aggvar"}`, spec)
	mustStatus(t, client, http.MethodPut, base+"/v1/streams/"+id, body, http.StatusCreated)
	if code, data := postRaw(t, client, base+"/v1/streams/"+id+"/ticks", wire.ContentType, mustFrame(t, "", ticks)); code != http.StatusOK {
		t.Fatalf("ingest %s: %d %s", id, code, data)
	}
}

// checkFramed fails unless a state response declared a Content-Length
// equal to its body and was not chunked.
func checkFramed(t *testing.T, what string, resp *http.Response, body []byte) {
	t.Helper()
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Content-Length %q, transfer encoding %v, for a %d-byte body", what, got, resp.TransferEncoding, len(body))
	}
}

// TestStateResponsesFramed: every state response — stream and group,
// GET and DELETE — carries a Content-Length equal to its body.
func TestStateResponsesFramed(t *testing.T) {
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()
	createFilled(t, client, srv.URL, "s", "simple:n=1000,seed=7", heavyTailedSeries(1, 8192))
	mustStatus(t, client, http.MethodPut, srv.URL+"/v1/groups/g",
		[]byte(`{"specs": ["systematic:interval=10", "bernoulli:rate=0.1"], "estimator": "aggvar"}`), http.StatusCreated)

	for _, path := range []string{"/v1/streams/s/state", "/v1/groups/g/state"} {
		resp, got := mustStatus(t, client, http.MethodGet, srv.URL+path, nil, http.StatusOK)
		checkFramed(t, "GET "+path, resp, got)
		resp, detached := mustStatus(t, client, http.MethodDelete, srv.URL+path, nil, http.StatusOK)
		checkFramed(t, "DELETE "+path, resp, detached)
		if !bytes.Equal(detached, got) {
			t.Errorf("DELETE %s returned %d bytes, not the %d-byte state GET saw", path, len(detached), len(got))
		}
	}
}

// TestPutStateBodies covers the ways a state body can arrive: chunked
// with no Content-Length (restores), larger than -max-body (413), and
// declaring more bytes than the client sends before closing (400). The
// blobs come from a daemon with the default 32 MiB body cap; the
// chunked and oversized PUTs go to one that caps bodies at 16 KiB.
func TestPutStateBodies(t *testing.T) {
	srcHub := hub.New()
	src := httptest.NewServer(newServer(srcHub, 0))
	defer src.Close()
	createFilled(t, src.Client(), src.URL, "small", "bernoulli:rate=0.01,seed=5", heavyTailedSeries(2, 4096))
	_, blob := mustStatus(t, src.Client(), http.MethodGet, src.URL+"/v1/streams/small/state", nil, http.StatusOK)
	createFilled(t, src.Client(), src.URL, "big", "simple:n=1000,seed=7", heavyTailedSeries(3, 8192))
	_, big := mustStatus(t, src.Client(), http.MethodGet, src.URL+"/v1/streams/big/state", nil, http.StatusOK)

	srv := httptest.NewServer(newServer(hub.New(), 16<<10))
	defer srv.Close()
	client := srv.Client()

	t.Run("chunked", func(t *testing.T) {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/streams/chunked/state", io.MultiReader(bytes.NewReader(blob)))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = -1
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("chunked PUT: %d", resp.StatusCode)
		}
		if _, got := mustStatus(t, client, http.MethodGet, srv.URL+"/v1/streams/chunked/state", nil, http.StatusOK); !bytes.Equal(got, blob) {
			t.Fatal("stream restored from a chunked body exports different state")
		}
	})

	t.Run("over max-body", func(t *testing.T) {
		if len(big) <= 16<<10 {
			t.Fatalf("reservoir state is %d bytes, not over the 16 KiB cap", len(big))
		}
		mustStatus(t, client, http.MethodPut, srv.URL+"/v1/streams/big/state", big, http.StatusRequestEntityTooLarge)
	})

	// The declared length is just under the body cap, so only the early
	// close can fail the read; the buffer is presized to at most
	// maxPooledState, whatever the header claims.
	t.Run("short body", func(t *testing.T) {
		conn, err := net.Dial("tcp", src.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "PUT /v1/streams/short/state HTTP/1.1\r\nHost: sampled\r\nContent-Length: %d\r\n\r\n", 32<<20-1)
		conn.Write(blob[:len(blob)/2])
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT closed before its declared length: %d, want 400", resp.StatusCode)
		}
		if _, err := srcHub.StreamState("short"); err == nil {
			t.Fatal("a truncated body installed a stream")
		}
	})
}

// TestStateHandoffHammer detaches and reinstalls 256 streams from
// several goroutines at once, so pooled DELETE and PUT buffers pass
// between requests and streams of every state size. Each detached blob
// must equal the state GET saw just before, and each reinstalled
// stream must export that blob again.
func TestStateHandoffHammer(t *testing.T) {
	const (
		streams = 256
		workers = 8
		rounds  = 2
	)
	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	client := srv.Client()
	for i := 0; i < streams; i++ {
		createFilled(t, client, srv.URL, fmt.Sprintf("h%03d", i), handoffSpecs[i%len(handoffSpecs)].spec,
			heavyTailedSeries(uint64(i), 2048))
	}

	move := func(path string) error {
		_, want, err := stateDo(client, http.MethodGet, path, nil)
		if err != nil {
			return err
		}
		resp, moved, err := stateDo(client, http.MethodDelete, path, nil)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(moved, want) {
			return fmt.Errorf("DELETE %s: %d, %d bytes, want the %d-byte state GET saw", path, resp.StatusCode, len(moved), len(want))
		}
		if resp, body, err := stateDo(client, http.MethodPut, path, moved); err != nil {
			return err
		} else if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("PUT %s: %d %s", path, resp.StatusCode, body)
		}
		if _, again, err := stateDo(client, http.MethodGet, path, nil); err != nil {
			return err
		} else if !bytes.Equal(again, moved) {
			return fmt.Errorf("reinstalled %s exports different state", path)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := w; i < streams; i += workers {
					if err := move(fmt.Sprintf("%s/v1/streams/h%03d/state", srv.URL, i)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkStateHandoff is one move of the serving benchmark's handoff
// workload over HTTP: DELETE a stream's state and PUT it back, on an
// aggvar stream prefilled with 2^16 ticks, per technique. The client
// reads every response into one reused buffer, so the allocations
// reported are mostly the daemon's and net/http's.
func BenchmarkStateHandoff(b *testing.B) {
	for _, tc := range handoffSpecs {
		b.Run(tc.name, func(b *testing.B) {
			srv := httptest.NewServer(newServer(hub.New(), 0))
			defer srv.Close()
			client := srv.Client()
			url := srv.URL + "/v1/streams/s/state"
			createFilled(b, client, srv.URL, "s", tc.spec, heavyTailedSeries(1, 1<<16))
			var blob, reply bytes.Buffer
			do := func(method string, body []byte, into *bytes.Buffer, want int) {
				var rd io.Reader
				if body != nil {
					rd = bytes.NewReader(body)
				}
				req, err := http.NewRequest(method, url, rd)
				if err != nil {
					b.Fatal(err)
				}
				resp, err := client.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				into.Reset()
				_, err = into.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != want {
					b.Fatalf("%s: %d %v, want %d", method, resp.StatusCode, err, want)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				do(http.MethodDelete, nil, &blob, http.StatusOK)
				do(http.MethodPut, blob.Bytes(), &reply, http.StatusCreated)
			}
		})
	}
}

// TestPutGroupStateRefusesFinishedMember: a sealed group blob with a
// finished member inside a live group is a 400, not an install. The
// blob swaps the member's state for that of a finished twin engine
// (same spec, clock and ticks) and re-seals the group.
func TestPutGroupStateRefusesFinishedMember(t *testing.T) {
	at := time.Unix(1e9, 0)
	clock := sampling.WithClock(func() time.Time { return at })
	spec := sampling.MustParse("systematic:interval=10")
	ticks := heavyTailedSeries(4, 200)
	g, err := sampling.NewGroup([]sampling.Spec{spec}, clock)
	if err != nil {
		t.Fatal(err)
	}
	g.OfferBatch(ticks)
	group, err := g.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	twin := func(finish bool) []byte {
		eng, err := sampling.New(spec, clock)
		if err != nil {
			t.Fatal(err)
		}
		eng.OfferBatch(ticks)
		if finish {
			eng.Finish()
		}
		blob, err := eng.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	live, finished := twin(false), twin(true)
	blob := bytes.Clone(group)
	at0 := bytes.Index(blob, live)
	if at0 < 0 || len(finished) != len(live) {
		t.Fatal("the member's state is not the twin engine's")
	}
	copy(blob[at0:], finished)
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-4]))

	srv := httptest.NewServer(newServer(hub.New(), 0))
	defer srv.Close()
	mustStatus(t, srv.Client(), http.MethodPut, srv.URL+"/v1/groups/bad/state", blob, http.StatusBadRequest)
	mustStatus(t, srv.Client(), http.MethodPut, srv.URL+"/v1/groups/ok/state", group, http.StatusCreated)
}

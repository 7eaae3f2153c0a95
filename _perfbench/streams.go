package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/sampling"
	"repro/sampling/estimate"
	"repro/sampling/wire"
)

// streams-session: 256 single-technique streams without an estimator,
// fed 512-tick frames over two persistent connections in a closed loop.
// Each request is one POST /v1/session carrying one frame for each of
// the connection's 128 streams, so every request is acknowledged with
// exact frame and tick counts. The serving floor: wire decode, the body
// read and hub dispatch carry the cost; the kernels cost under a
// nanosecond per tick and no estimator runs.
const (
	sessionStreams = 256
	sessionFrame   = 512
	sessionWarmup  = 32 // rounds per connection before the timed window
)

type streamsSession struct {
	tr      *traffic
	streams []*stream
	blobs   [][]byte
}

func newStreamsSession(tr *traffic) workload {
	return &streamsSession{
		tr: tr,
		streams: tr.streams(sessionStreams,
			func(i int) string { return fmt.Sprintf("s%03d", i) },
			func(i int) int { return i % 4 },
			func(i int, draw func() uint64) []string { return []string{specFor(techniques[i%4], draw())} }),
	}
}

// half is the set of streams connection c carries.
func (w *streamsSession) half(c int) []*stream {
	n := len(w.streams) / 2
	return w.streams[c*n : (c+1)*n]
}

func (w *streamsSession) setup(cs [2]*conn) error {
	return onBoth(cs, func(c *conn, half int) error {
		for _, s := range w.half(half) {
			if err := createStream(c, s, ""); err != nil {
				return err
			}
		}
		var buf []byte
		for r := 0; r < sessionWarmup; r++ {
			buf = w.encodeRound(buf[:0], half)
			if err := w.postRound(c, buf, half); err != nil {
				return err
			}
		}
		return nil
	})
}

// encodeRound appends one frame of the next sessionFrame ticks for each
// of connection c's streams.
func (w *streamsSession) encodeRound(buf []byte, c int) []byte {
	for _, s := range w.half(c) {
		// Ids are short and frames bounded, so AppendFrame cannot fail.
		buf, _ = wire.AppendFrame(buf, s.id, w.tr.next(s, sessionFrame))
	}
	return buf
}

// postRound sends one round as a session and checks the daemon
// acknowledged every frame and tick of it.
func (w *streamsSession) postRound(c *conn, body []byte, half int) error {
	resp, err := c.expect(http.StatusOK, http.MethodPost, "/v1/session", wire.ContentType, body)
	if err != nil {
		return err
	}
	var ack struct{ Frames, Accepted int64 }
	if err := json.Unmarshal(resp, &ack); err != nil {
		return fmt.Errorf("session response: %w", err)
	}
	n := int64(len(w.half(half)))
	if ack.Frames != n || ack.Accepted != n*sessionFrame {
		return fmt.Errorf("session acknowledged %d frames, %d ticks; sent %d, %d", ack.Frames, ack.Accepted, n, n*sessionFrame)
	}
	return nil
}

func (w *streamsSession) measure(cs [2]*conn, d time.Duration) (*window, error) {
	start := time.Now()
	deadline := start.Add(d)
	var parts [2]*window
	err := onBoth(cs, func(c *conn, half int) error {
		p := &window{}
		parts[half] = p
		var buf []byte
		last := start
		for time.Now().Before(deadline) {
			t0 := time.Now()
			buf = w.encodeRound(buf[:0], half)
			t1 := time.Now()
			p.encode += t1.Sub(t0)
			p.encTicks += int64(len(w.half(half)) * sessionFrame)
			p.late = append(p.late, ms(t1.Sub(last)))
			err := w.postRound(c, buf, half)
			last = time.Now()
			p.attempted++
			if err != nil {
				fmt.Fprintln(os.Stderr, "streams-session:", err)
				p.failed++
				continue
			}
			p.ops++
			p.ticks += int64(len(w.half(half)) * sessionFrame)
			p.ingest = append(p.ingest, ms(last.Sub(t1)))
			p.end = last
		}
		return nil
	})
	win := &window{}
	for _, p := range parts {
		win.merge(p)
	}
	win.elapsed = win.end.Sub(start)
	return win, err
}

func (w *streamsSession) collect(cs [2]*conn) error {
	w.blobs = make([][]byte, len(w.streams))
	return detachAll(cs, len(w.streams), func(i int) string { return "/v1/streams/" + w.streams[i].id + "/state" }, w.blobs)
}

func (w *streamsSession) check(skew int) (int, int, error) {
	mismatched, first := checkAll(len(w.streams), func(i int) error {
		s := w.streams[i]
		want, err := oracleEngine(s, "")
		if err != nil {
			return err
		}
		w.tr.replay(s, 0, sessionFrame, func(b []float64) { want.OfferBatch(b) })
		return restoreAndCompare(s, w.blobs[i], want, skewFor(i, skew))
	})
	if first != nil {
		fmt.Fprintln(os.Stderr, "streams-session oracle:", first)
	}
	return len(w.streams), mismatched, nil
}

// createStream creates one stream from its spec, with an online Hurst
// estimator when method is non-empty.
func createStream(c *conn, s *stream, method string) error {
	req := map[string]string{"spec": s.specs[0]}
	if method != "" {
		req["estimator"] = method
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_, err = c.expect(http.StatusCreated, http.MethodPut, "/v1/streams/"+s.id, "application/json", body)
	return err
}

// oracleEngine builds the in-process twin of a stream.
func oracleEngine(s *stream, method string) (*sampling.Engine, error) {
	spec, err := sampling.Parse(s.specs[0])
	if err != nil {
		return nil, err
	}
	var opts []sampling.Option
	if method != "" {
		opts = append(opts, sampling.WithEstimator(estimate.Method(method)))
	}
	return sampling.New(spec, opts...)
}

// restoreAndCompare restores a detached blob and compares it with the
// oracle engine.
func restoreAndCompare(s *stream, blob []byte, want *sampling.Engine, skew int) error {
	got, err := sampling.RestoreEngine(blob)
	if err != nil {
		return fmt.Errorf("%s: restoring detached state: %w", s.id, err)
	}
	if err := compareEngines(got, want, skew); err != nil {
		return fmt.Errorf("%s: %w", s.id, err)
	}
	return nil
}

// detachAll DELETEs the state resource path(i) for i in [0, n) over
// both connections and keeps each blob.
func detachAll(cs [2]*conn, n int, path func(int) string, blobs [][]byte) error {
	return onBoth(cs, func(c *conn, half int) error {
		for i := half; i < n; i += 2 {
			blob, err := c.expect(http.StatusOK, http.MethodDelete, path(i), "", nil)
			if err != nil {
				return err
			}
			blobs[i] = append([]byte(nil), blob...)
		}
		return nil
	})
}

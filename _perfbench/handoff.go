package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/sampling/estimate"
	"repro/sampling/wire"
)

// handoff: 1024 streams with the aggvar estimator, cycling through all
// five techniques, each prefilled with 2^16 ticks during setup. One
// connection runs a closed loop of moves: detach a stream (DELETE
// .../state), reinstall it under the same id (PUT .../state), then post
// one 512-tick frame to show it resumes. The router-rebalance and
// restart path: the persist codec and hub detach/install carry the
// cost while the kernels sit idle, and state sizes range from ~2 KB to
// ~18 KB (the simple:n=1000 reservoir).
//
// The loop moves handoffWindow streams at a time in two pipelined
// phases, so the daemon works through a queue of requests instead of
// idling for a round trip after each. With one request in flight the
// figures followed how fast the host woke an idle CPU: on a shared
// two-CPU VM they rose when the host was busier, and spread across runs
// by up to a quarter of their median.
const (
	handoffStreams = 1024
	handoffPrefill = maxBatch
	handoffFrame   = 512
	handoffWindow  = 16             // moves in flight per pipelined window; divides handoffStreams
	handoffWarmup  = handoffStreams // moves before the timed window: each stream once
)

type handoff struct {
	tr      *traffic
	streams []*stream
	blobs   [][]byte
	next    int // round-robin position of the move loop

	// Buffers of one window, reused from window to window.
	batch  [handoffWindow]*stream
	held   [handoffWindow][]byte // detached states
	frames [handoffWindow][]byte // encoded tick frames
	reqs   []request
}

func newHandoff(tr *traffic) workload {
	n := len(techniques)
	return &handoff{
		tr: tr,
		streams: tr.streams(handoffStreams,
			func(i int) string { return fmt.Sprintf("h%04d", i) },
			func(i int) int { return i % n },
			func(i int, draw func() uint64) []string { return []string{specFor(techniques[i%n], draw())} }),
	}
}

func (w *handoff) setup(cs [2]*conn) error {
	err := onBoth(cs, func(c *conn, half int) error {
		var buf []byte
		for i := half; i < len(w.streams); i += 2 {
			s := w.streams[i]
			if err := createStream(c, s, string(estimate.AggVar)); err != nil {
				return err
			}
			buf, _ = wire.AppendFrame(buf[:0], "", w.tr.next(s, handoffPrefill))
			if err := postTicks(c, s, buf, handoffPrefill); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := 0; i < handoffWarmup; i += handoffWindow {
		if err := w.step(cs[0], &window{}); err != nil {
			return err
		}
	}
	return nil
}

// step moves the next handoffWindow streams in two pipelined phases:
// first it detaches each (DELETE .../state), then, stream by stream, it
// installs the state again under the same id (PUT .../state) and posts
// one frame. It records the window in p; an ingest round trip runs from
// its phase's send to its own response, and a move is its DELETE's and
// its PUT's share of the two phases.
func (w *handoff) step(c *conn, p *window) error {
	for i := range w.batch {
		w.batch[i] = w.streams[w.next%len(w.streams)]
		w.next++
	}
	var moves, ingest [handoffWindow]float64
	t0 := time.Now()
	w.reqs = w.reqs[:0]
	for _, s := range w.batch {
		w.reqs = append(w.reqs, request{http.MethodDelete, statePath(s), "", nil})
	}
	err := c.pipeline(w.reqs, func(i, status int, body []byte) error {
		if err := checkStatus(w.reqs[i], http.StatusOK, status, body); err != nil {
			return err
		}
		moves[i] = ms(time.Since(t0))
		w.held[i] = append(w.held[i][:0], body...)
		return nil
	})
	t1 := time.Now()
	for i, s := range w.batch {
		w.frames[i], _ = wire.AppendFrame(w.frames[i][:0], "", w.tr.next(s, handoffFrame))
	}
	t2 := time.Now()
	p.encode += t2.Sub(t1)
	p.encTicks += handoffWindow * handoffFrame
	if err == nil {
		w.reqs = w.reqs[:0]
		for i, s := range w.batch {
			w.reqs = append(w.reqs,
				request{http.MethodPut, statePath(s), "application/octet-stream", w.held[i]},
				request{http.MethodPost, "/v1/streams/" + s.id + "/ticks", wire.ContentType, w.frames[i]})
		}
		err = c.pipeline(w.reqs, func(j, status int, body []byte) error {
			i, at := j/2, ms(time.Since(t2))
			if j%2 == 0 {
				moves[i] += at
				return checkStatus(w.reqs[j], http.StatusCreated, status, body)
			}
			ingest[i] = at
			if err := checkStatus(w.reqs[j], http.StatusOK, status, body); err != nil {
				return err
			}
			return checkAck(w.batch[i], body, handoffFrame)
		})
	}
	p.attempted += handoffWindow
	if err != nil {
		p.failed += handoffWindow
		return err
	}
	p.ops += handoffWindow
	p.ticks += handoffWindow * handoffFrame
	p.moves = append(p.moves, moves[:]...)
	p.ingest = append(p.ingest, ingest[:]...)
	return nil
}

func statePath(s *stream) string { return "/v1/streams/" + s.id + "/state" }

// postTicks posts one frame to a stream and checks every tick of it was
// acknowledged.
func postTicks(c *conn, s *stream, body []byte, n int) error {
	resp, err := c.expect(http.StatusOK, http.MethodPost, "/v1/streams/"+s.id+"/ticks", wire.ContentType, body)
	if err != nil {
		return err
	}
	return checkAck(s, resp, n)
}

// checkAck checks an ingest response acknowledged all n ticks.
func checkAck(s *stream, resp []byte, n int) error {
	var ack struct{ Accepted int }
	if err := json.Unmarshal(resp, &ack); err != nil {
		return fmt.Errorf("ingest response: %w", err)
	}
	if ack.Accepted != n {
		return fmt.Errorf("stream %s acknowledged %d ticks of %d", s.id, ack.Accepted, n)
	}
	return nil
}

func (w *handoff) measure(cs [2]*conn, d time.Duration) (*window, error) {
	start := time.Now()
	deadline := start.Add(d)
	p := &window{}
	last := start
	for time.Now().Before(deadline) {
		p.late = append(p.late, ms(time.Since(last)))
		err := w.step(cs[0], p)
		last = time.Now()
		if err != nil {
			fmt.Fprintln(os.Stderr, "handoff:", err)
			continue
		}
		p.end = last
	}
	p.elapsed = p.end.Sub(start)
	return p, nil
}

func (w *handoff) collect(cs [2]*conn) error {
	w.blobs = make([][]byte, len(w.streams))
	return detachAll(cs, len(w.streams), func(i int) string { return statePath(w.streams[i]) }, w.blobs)
}

// check compares every moved stream with a twin that was never moved:
// the persist codec's byte-identity invariant, end to end.
func (w *handoff) check(skew int) (int, int, error) {
	mismatched, first := checkAll(len(w.streams), func(i int) error {
		s := w.streams[i]
		want, err := oracleEngine(s, string(estimate.AggVar))
		if err != nil {
			return err
		}
		w.tr.replay(s, handoffPrefill, handoffFrame, func(b []float64) { want.OfferBatch(b) })
		return restoreAndCompare(s, w.blobs[i], want, skewFor(i, skew))
	})
	if first != nil {
		fmt.Fprintln(os.Stderr, "handoff oracle:", first)
	}
	return len(w.streams), mismatched, nil
}

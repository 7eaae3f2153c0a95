package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/sampling/wire"
)

// maxSessionReply caps how much of a session's response body the
// client reads: the body is one small JSON document.
const maxSessionReply = 1 << 20

// SessionTotals is what a persistent session's frames added up to, as
// the peer reports when the session ends. It is the body of every tick
// ingest the sampled daemon answers, a session or not.
type SessionTotals struct {
	Frames   int64 `json:"frames"`
	Accepted int64 `json:"accepted"` // ticks offered
	Kept     int64 `json:"kept"`     // samples the batches finalized
}

// Session is one persistent ingest session on a peer: a POST
// {base}/v1/session whose body is a stream of binary tick-batch frames
// fed through a pipe, each frame routed by the peer to the stream its
// id names. One goroutine may Encode at a time; end the session with
// exactly one Close or Abort.
type Session struct {
	pw   *io.PipeWriter
	enc  *wire.Encoder
	done chan struct{}

	// totals and err are the peer's answer, set before done closes.
	totals SessionTotals
	err    error
}

// OpenSession starts a session on the peer at base. The request runs
// until Close or Abort ends its body, or ctx ends; a nil client means
// http.DefaultClient.
func OpenSession(ctx context.Context, client *http.Client, base string) (*Session, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/session", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	if client == nil {
		client = http.DefaultClient
	}
	s := &Session{pw: pw, enc: wire.NewEncoder(pw), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.totals, s.err = sessionReply(client.Do(req))
		// The peer has answered: fail any later Encode with its verdict
		// (io.ErrClosedPipe after a clean answer) instead of letting it
		// block on a body nobody reads.
		pr.CloseWithError(s.err)
	}()
	return s, nil
}

// sessionReply reads the peer's answer to a session. The totals are
// decoded from an error body too: the frames before a mid-session
// error stay ingested, and the body says how far the session got.
func sessionReply(resp *http.Response, err error) (SessionTotals, error) {
	if err != nil {
		return SessionTotals{}, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, io.LimitReader(resp.Body, maxSessionReply)); err != nil {
		return SessionTotals{}, fmt.Errorf("cluster: reading session reply: %w", err)
	}
	var body SessionTotals
	jerr := json.Unmarshal(buf.Bytes(), &body)
	if err := peerStatus(resp, buf.Bytes()); err != nil {
		return body, err
	}
	if jerr != nil {
		return body, fmt.Errorf("cluster: parsing session reply: %w", jerr)
	}
	return body, nil
}

// Encode writes one frame into the session. When the peer has already
// answered — an error response ends the session mid-stream — Encode
// returns the peer's verdict rather than the bare pipe error.
func (s *Session) Encode(id string, values []float64) error {
	err := s.enc.Encode(id, values)
	if errors.Is(err, io.ErrClosedPipe) {
		// The transport dropped the body: the exchange is over, and the
		// answer is at most a read away.
		<-s.done
		if s.err != nil {
			return s.err
		}
	}
	return err
}

// Close ends the session cleanly and returns the peer's totals. They
// come back with an error too when the peer answered with one.
func (s *Session) Close() (SessionTotals, error) {
	s.pw.Close()
	<-s.done
	return s.totals, s.err
}

// Abort breaks the session so the peer sees a truncated body, not a
// clean end, and waits for the exchange to finish.
func (s *Session) Abort(cause error) {
	s.pw.CloseWithError(cause)
	<-s.done
}

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/sampling/wire"
)

// sessionPeer answers POST /v1/session the way sampled does: it counts
// frames until the body ends, keeping one tick in ten, and stops at the
// first frame for an unknown id ("ghost") with a 404 whose body carries
// the totals so far next to the error.
func sessionPeer() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dec := wire.NewDecoder(r.Body, 0)
		var t SessionTotals
		for {
			id, values, err := dec.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil || id == "ghost" {
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]any{
					"error": `stream "ghost" not found`, "frames": t.Frames, "accepted": t.Accepted, "kept": t.Kept})
				return
			}
			t.Frames++
			t.Accepted += int64(len(values))
			t.Kept += int64(len(values) / 10)
		}
		json.NewEncoder(w).Encode(t)
	}))
}

func TestSession(t *testing.T) {
	peer := sessionPeer()
	defer peer.Close()
	batch := make([]float64, 100)
	open := func() *Session {
		t.Helper()
		s, err := OpenSession(context.Background(), peer.Client(), peer.URL)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("clean", func(t *testing.T) {
		s := open()
		for range 3 {
			if err := s.Encode("a", batch); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Close()
		if want := (SessionTotals{Frames: 3, Accepted: 300, Kept: 30}); err != nil || got != want {
			t.Fatalf("Close = %+v, %v; want %+v, nil", got, err, want)
		}
	})

	// The totals of the frames before a mid-session error come back
	// from the 4xx body, next to the peer's error.
	t.Run("totals from an error body", func(t *testing.T) {
		s := open()
		for _, id := range []string{"a", "b", "ghost"} {
			if err := s.Encode(id, batch); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Close()
		var pe *PeerError
		if !errors.Is(err, ErrPeer) || !errors.As(err, &pe) || pe.Status != http.StatusNotFound ||
			!strings.Contains(err.Error(), "status 404") {
			t.Fatalf("Close error = %v, want a 404 ErrPeer", err)
		}
		if want := (SessionTotals{Frames: 2, Accepted: 200, Kept: 20}); got != want {
			t.Fatalf("Close totals = %+v, want %+v", got, want)
		}
	})

	// Once the peer has answered, Encode reports its verdict, not the
	// pipe error of a body nobody reads any more.
	t.Run("encode after the answer", func(t *testing.T) {
		s := open()
		err := s.Encode("ghost", batch)
		for i := 0; err == nil && i < 1<<16; i++ {
			err = s.Encode("a", batch)
		}
		if !errors.Is(err, ErrPeer) || !strings.Contains(err.Error(), `stream \"ghost\" not found`) {
			t.Fatalf("Encode after the peer answered = %v, want the peer's 404", err)
		}
		if _, cerr := s.Close(); cerr != err {
			t.Fatalf("Close = %v, want the Encode verdict %v", cerr, err)
		}
	})

	t.Run("abort", func(t *testing.T) {
		s := open()
		if err := s.Encode("a", batch); err != nil {
			t.Fatal(err)
		}
		s.Abort(errors.New("client gave up"))
		if err := s.Encode("a", batch); err == nil {
			t.Fatal("Encode after Abort succeeded")
		}
	})
}

//go:build !race

package main

import (
	"bytes"
	"testing"

	"repro/sampling"
	"repro/sampling/hub"
	"repro/sampling/wire"
)

// TestSessionFramesDoNotAllocate: a warm session rotating through
// several streams' ids ingests its frames without allocating — decode,
// id lookup, hub dispatch, engine batch, the exact counters and the
// sampled histograms alike. It runs without the race detector, under
// which sync.Pool drops items at random.
func TestSessionFramesDoNotAllocate(t *testing.T) {
	h := hub.New()
	// Longer than one byte: Go converts a one-byte []byte to a string
	// without allocating, which would hide a per-frame id copy.
	ids := []string{"stream-a", "stream-b", "stream-c"}
	for _, id := range ids {
		if err := h.Create(id, sampling.MustParse("systematic:interval=4")); err != nil {
			t.Fatal(err)
		}
	}
	s := newMeteredServer(h)
	const frames = 192
	ticks := make([]float64, 64)
	var body []byte
	for i := 0; i < frames; i++ {
		body = append(body, mustFrame(t, ids[i%len(ids)], ticks)...)
	}
	src := bytes.NewReader(body)
	dec := wire.NewDecoder(src, 0)
	ingest := func() {
		src.Reset(body)
		dec.Reset(src)
		if resp, err := readFrames(dec, s.sessionFrames, s.offerSession); err != nil || resp.Frames != frames {
			t.Fatalf("session: %+v, %v", resp, err)
		}
	}
	ingest()
	if allocs := testing.AllocsPerRun(20, ingest); allocs != 0 {
		t.Errorf("a warm session allocates %.2f times per frame, want 0", allocs/frames)
	}
}

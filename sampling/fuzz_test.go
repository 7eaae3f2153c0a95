package sampling

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/binenc"
	"repro/internal/stats"
)

// The restore fuzzers treat RestoreEngine and RestoreGroup as the trust
// boundary they are: a state body is only sealed, not signed, and a
// client computes CRC-32 as easily as the daemon does. Each corpus
// entry is a blob's payload without its CRC-32 trailer; the harness
// re-seals it, so a mutation reaches the decoders and validate instead
// of dying at the checksum. Whatever restore accepts must re-marshal
// to its own bytes, and then serve every call a daemon makes on a live
// stream without panicking.

// fuzzTicks are the ticks offered to every restored engine and group.
var fuzzTicks = stateTrace(64, 99)

// addPayload adds a blob's payload, its CRC-32 trailer stripped, to the
// corpus, after checking that the harness's re-seal of it restores: a
// seed restore refuses would only exercise the refusals.
func addPayload[T any](f *testing.F, blob []byte, err error, reseal func([]byte) []byte, restore func([]byte, ...Option) (T, error)) {
	f.Helper()
	if err != nil {
		f.Fatal(err)
	}
	payload := blob[:len(blob)-4]
	if _, err := restore(reseal(payload)); err != nil {
		f.Fatalf("re-sealed seed refused: %v", err)
	}
	f.Add(payload)
}

// resealEngine appends the CRC-32 trailer to a copy of payload.
func resealEngine(payload []byte) []byte {
	return sealState(bytes.Clone(payload), 0)
}

// resealGroup re-seals a group payload, and first every member blob its
// member table frames, each of which carries its own trailer: a member
// blob is re-sealed over all but its last four bytes, in place.
func resealGroup(payload []byte) []byte {
	b := resealEngine(payload)
	r := binenc.NewReader(b[:len(b)-4])
	r.U32()   // magic
	r.U8()    // version
	r.Bytes() // estimator method
	r.I64()   // seen
	r.I64()   // start
	stats.ReadAccumulatorState(r)
	r.Bool()      // finished
	r.Bytes()     // finish error
	if r.Bool() { // input estimator: method and state
		r.Bytes()
		r.Bytes()
	}
	for n := r.U32(); n > 0 && r.Err() == nil; n-- {
		if m := r.Bytes(); len(m) >= 4 {
			binary.LittleEndian.PutUint32(m[len(m)-4:], crc32.ChecksumIEEE(m[:len(m)-4]))
		}
	}
	return sealState(b[:len(b)-4], 0)
}

// fuzzTickCounts are the stream lengths the seeds are cut at: empty, a
// partial first estimator block, and several ladder levels deep.
var fuzzTickCounts = []int{0, 5, 300}

func FuzzRestoreEngine(f *testing.F) {
	for _, tc := range restoreSpecs {
		for _, method := range appendStateEstimators {
			for _, n := range fuzzTickCounts {
				eng := stateEngine(f, tc.spec, tc.budget, method)
				eng.OfferBatch(stateTrace(n, 7))
				blob, err := eng.MarshalState()
				addPayload(f, blob, err, resealEngine, RestoreEngine)
			}
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		blob := resealEngine(payload)
		eng, err := RestoreEngine(blob)
		if err != nil {
			return
		}
		if again, err := eng.AppendState(nil); err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("restored engine re-marshals to other bytes (err %v)", err)
		}
		eng.Snapshot()
		eng.OfferBatch(fuzzTicks)
		eng.Snapshot()
		eng.Finish()
		if _, err := eng.AppendState(nil); err != nil {
			t.Fatalf("restored engine does not marshal: %v", err)
		}
	})
}

func FuzzRestoreGroup(f *testing.F) {
	specs := []Spec{
		MustParse("systematic:interval=40"),
		MustParse("stratified:interval=40,seed=4"),
		MustParse("simple:n=64,seed=5"),
		MustParse("bernoulli:rate=0.025,seed=6"),
		MustParse("bss:interval=40,L=3,eps=1.2"),
	}
	for _, method := range appendStateEstimators {
		for _, n := range fuzzTickCounts {
			var opts []Option
			if method != "" {
				opts = append(opts, WithEstimator(method))
			}
			g, err := NewGroup(specs, opts...)
			if err != nil {
				f.Fatalf("%s: %v", cmp.Or(string(method), "none"), err)
			}
			g.OfferBatch(stateTrace(n, 7))
			blob, err := g.MarshalState()
			addPayload(f, blob, err, resealGroup, RestoreGroup)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		blob := resealGroup(payload)
		g, err := RestoreGroup(blob)
		if err != nil {
			return
		}
		if again, err := g.AppendState(nil); err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("restored group re-marshals to other bytes (err %v)", err)
		}
		g.Snapshot()
		g.OfferBatch(fuzzTicks)
		g.Snapshot()
		g.Finish()
		if _, err := g.AppendState(nil); err != nil {
			t.Fatalf("restored group does not marshal: %v", err)
		}
	})
}

package sampling

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/sampling/estimate"
)

// Engine and group state serialization — the bottom layer of the
// durability subsystem (sampling/persist holds the checkpoint-file
// container, sampling/hub the hub-wide forms).
//
// The framing mirrors sampling/wire's discipline: a little-endian magic
// word, a version byte, the payload, and a CRC-32 (IEEE) trailer over
// everything before it. Inside the payload, integers are little-endian
// fixed-width, floats raw IEEE-754 bits, strings and nested blobs
// u32-length-prefixed (internal/binenc).
//
// The encoder writes the whole blob into the caller's buffer in one
// pass (AppendState): each nested blob — kernel, estimator, group
// member — is appended in place behind a reserved u32 length prefix
// that is patched once the blob is complete, and the CRC covers only
// the bytes this blob appended. The layout is the one below either
// way; MarshalState is AppendState(nil).
//
// Engine state blob, version 1:
//
//	offset  size  field
//	0       4     magic "Eng1" (0x31676e45 little-endian)
//	4       1     version (1)
//	5       ...   spec string (canonical form, seed included)
//	              budget i64, start unix-nanos i64
//	              seen i64, kept i64, qualified i64
//	              kept-value accumulator (n i64, mean/m2/sum/min/max f64)
//	              finished bool, finish error string ("" = none)
//	              kernel state blob (technique-tagged, opaque)
//	              input estimator:  present bool [, method string, blob]
//	              kept estimator:   present bool [, method string, blob]
//	end-4   4     CRC-32 (IEEE) over every preceding byte
//
// The invariant the whole layer is built for: RestoreEngine on a
// MarshalState blob yields an engine that emits the byte-identical
// kept-sample sequence — and, fed the same batches, the byte-identical
// Hurst ladders and estimates — the original engine would have
// produced had it never stopped. The RNG position travels inside the
// kernel blob, so the random draw sequence continues exactly. Fed a
// different batch partition, a ladder keeps its exact structure and
// aggvar moments within stats.FoldTolerance (lrd.CompareFoldedStates).
// Restore refuses counters, accumulators and estimator sections that no
// stream of ticks produces (Engine.validate, Group.validate).

const (
	engineStateMagic uint32 = 0x31676e45 // "Eng1" little-endian
	groupStateMagic  uint32 = 0x31707247 // "Grp1" little-endian
	stateVersion     uint8  = 1
)

var (
	// ErrBadState is wrapped by RestoreEngine/RestoreGroup for blobs
	// that are structurally unusable: too short, wrong magic, corrupt
	// payload. Branch with errors.Is.
	ErrBadState = errors.New("sampling: malformed state blob")
	// ErrStateVersion is wrapped for well-framed blobs whose version
	// this build does not speak.
	ErrStateVersion = errors.New("sampling: unsupported state version")
	// ErrStateChecksum is wrapped when the CRC-32 trailer does not match
	// the payload — truncation or bit rot, not a format error.
	ErrStateChecksum = errors.New("sampling: state checksum mismatch")
)

// sealState appends the CRC-32 trailer over the blob that starts at
// b[base:].
func sealState(b []byte, base int) []byte {
	return binenc.AppendU32(b, crc32.ChecksumIEEE(b[base:]))
}

// openState validates framing (length, magic, version, CRC) and returns
// a reader positioned at the first payload field.
func openState(data []byte, magic uint32, kind string) (*binenc.Reader, error) {
	const overhead = 4 + 1 + 4 // magic + version + crc
	if len(data) < overhead {
		return nil, fmt.Errorf("sampling: %s state blob of %d bytes is shorter than its framing: %w", kind, len(data), ErrBadState)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	r := binenc.NewReader(data)
	if got := r.U32(); got != magic {
		return nil, fmt.Errorf("sampling: %s state magic %#08x, want %#08x: %w", kind, got, magic, ErrBadState)
	}
	if got := r.U8(); got != stateVersion {
		return nil, fmt.Errorf("sampling: %s state version %d, this build speaks %d: %w", kind, got, stateVersion, ErrStateVersion)
	}
	if got, want := binenc.NewReader(trailer).U32(), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("sampling: %s state CRC %#08x, computed %#08x: %w", kind, got, want, ErrStateChecksum)
	}
	// Re-wrap so the payload reader cannot run into the CRC trailer.
	r = binenc.NewReader(body[4+1:])
	return r, nil
}

// restoreConfig validates the option set a Restore* call may carry:
// only the clock is injectable — budget and estimator are part of the
// serialized state, and overriding them would break the
// byte-identical-continuation invariant.
func restoreConfig(opts []Option) (config, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return config{}, err
	}
	if cfg.budget != 0 || cfg.estimator != "" {
		return config{}, fmt.Errorf("sampling: restore accepts only WithClock; budget and estimator are carried by the state blob")
	}
	return cfg, nil
}

// MarshalState captures the engine's complete state — spec, counters,
// accumulator, technique kernel (including its RNG position) and any
// estimator ladders — as a versioned, CRC-checked blob. It never
// finalizes anything: the engine keeps running, and the blob describes
// the exact tick boundary the next OfferBatch would continue from.
// Concurrent OfferBatch calls serialize against it, so a blob always
// sits on a batch boundary.
func (e *Engine) MarshalState() ([]byte, error) { return e.AppendState(nil) }

// AppendState appends the MarshalState blob to dst and returns the
// extended slice; the appended bytes equal MarshalState's exactly.
// With enough capacity in dst it allocates nothing, so a caller that
// reuses one buffer moves state without garbage. On error dst is
// returned as it was.
func (e *Engine) AppendState(dst []byte) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	base := len(dst)
	b := binenc.AppendU32(dst, engineStateMagic)
	b = binenc.AppendU8(b, stateVersion)
	b = binenc.AppendString(b, e.specString)
	b = binenc.AppendI64(b, int64(e.budget))
	b = binenc.AppendI64(b, e.start.UnixNano())
	b = binenc.AppendI64(b, int64(e.seen))
	b = binenc.AppendI64(b, int64(e.kept))
	b = binenc.AppendI64(b, int64(e.qualified))
	b = e.acc.AppendState(b)
	b = binenc.AppendBool(b, e.finished)
	b = binenc.AppendString(b, errString(e.finishErr))
	b, at := binenc.ReserveLen(b)
	b, err := e.kernel.AppendState(b)
	if err != nil {
		return dst, fmt.Errorf("sampling: capture %q kernel state: %w", e.kernel.Name(), err)
	}
	binenc.PatchLen(b, at)
	b = appendEstimator(b, e.estIn)
	b = appendEstimator(b, e.estKept)
	return sealState(b, base), nil
}

// RestoreEngine rebuilds an engine from a MarshalState blob. The only
// accepted option is WithClock (the clock is runtime wiring, not
// state); the spec, seed, budget and estimators all come from the blob.
// The restored engine continues exactly where the captured one stood:
// same counters, same kernel state, same RNG position, same estimator
// ladders — and therefore the byte-identical kept-sample sequence on
// any continuation of the stream.
func RestoreEngine(data []byte, opts ...Option) (*Engine, error) {
	cfg, err := restoreConfig(opts)
	if err != nil {
		return nil, err
	}
	e, err := restoreEngine(data, cfg.clock)
	if err != nil {
		return nil, err
	}
	// A standalone engine estimates both sides of its stream with one
	// method, or neither: Snapshot reads the two together.
	if err := e.validate(methodOf(e.estIn), methodOf(e.estIn)); err != nil {
		return nil, err
	}
	return e, nil
}

// validate checks the invariants every stream of ticks keeps between an
// engine's counters, its kept-value accumulator and its estimator
// ladders, which restore cannot take on trust: a blob is only sealed,
// not signed. in and kept name the methods the input-side and
// kept-side estimators must carry, "" for none. A ladder has consumed
// exactly the ticks its side of the stream has seen.
func (e *Engine) validate(in, kept estimate.Method) error {
	var bad string
	switch {
	case e.seen < 0 || e.kept < 0 || e.qualified < 0 || e.budget < 0:
		bad = "a negative counter"
	case e.kept > e.seen:
		bad = "more kept than seen"
	case e.qualified > e.kept:
		bad = "more qualified than kept"
	case e.budget > 0 && e.kept > e.budget:
		bad = "more kept than its budget"
	case e.acc.N() != e.kept:
		bad = fmt.Sprintf("%d values in its kept accumulator", e.acc.N())
	case e.finishErr != nil && !e.finished:
		bad = "a finish error but no finish"
	case methodOf(e.estIn) != in || methodOf(e.estKept) != kept:
		bad = fmt.Sprintf("input estimator %q and kept estimator %q where %q and %q belong",
			methodOf(e.estIn), methodOf(e.estKept), in, kept)
	case e.estIn != nil && e.estIn.Ticks() != int64(e.seen):
		bad = fmt.Sprintf("an input estimator of %d ticks", e.estIn.Ticks())
	case e.estKept != nil && e.estKept.Ticks() != int64(e.kept):
		bad = fmt.Sprintf("a kept estimator of %d ticks", e.estKept.Ticks())
	default:
		return nil
	}
	return fmt.Errorf("sampling: engine state has %s (seen=%d kept=%d qualified=%d budget=%d): %w",
		bad, e.seen, e.kept, e.qualified, e.budget, ErrBadState)
}

// restoreEngine decodes an engine blob in the form shared by standalone
// engines and group members; the caller validates the result.
func restoreEngine(data []byte, clock func() time.Time) (*Engine, error) {
	r, err := openState(data, engineStateMagic, "engine")
	if err != nil {
		return nil, err
	}
	specString := r.String()
	budget := int(r.I64())
	startNanos := r.I64()
	seen, kept, qualified := int(r.I64()), int(r.I64()), int(r.I64())
	accState := stats.ReadAccumulatorState(r)
	finished := r.Bool()
	finishMsg := r.String()
	kernelState := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sampling: engine state payload: %w (%w)", err, ErrBadState)
	}
	spec, err := Parse(specString)
	if err != nil {
		return nil, fmt.Errorf("sampling: engine state spec %q: %w", specString, err)
	}
	// AppendState writes the canonical form, and nothing else restores.
	if spec.String() != specString {
		return nil, fmt.Errorf("sampling: engine state spec %q is not in its canonical form %q: %w", specString, spec.String(), ErrBadState)
	}
	kernel, err := core.Build(spec.Technique, spec.Params)
	if err != nil {
		return nil, fmt.Errorf("sampling: rebuild %q from state: %w", specString, err)
	}
	if err := kernel.RestoreState(kernelState); err != nil {
		return nil, fmt.Errorf("sampling: restore %q kernel state: %w", kernel.Name(), err)
	}
	e := &Engine{
		spec:       spec,
		specString: specString,
		kernel:     kernel,
		clock:      clock,
		start:      time.Unix(0, startNanos),
		budget:     budget,
		seen:       seen,
		kept:       kept,
		qualified:  qualified,
		finished:   finished,
	}
	e.acc.SetState(accState)
	if finishMsg != "" {
		// The original error's type is gone; its message survives as an
		// opaque error so Summary.Err stays informative after a restart.
		e.finishErr = errors.New(finishMsg)
	}
	if e.estIn, err = readEstimator(r); err != nil {
		return nil, err
	}
	if e.estKept, err = readEstimator(r); err != nil {
		return nil, err
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("sampling: engine state payload: %w (%w)", err, ErrBadState)
	}
	return e, nil
}

// methodOf names an optional estimator's method, "" for none.
func methodOf(est estimate.Estimator) estimate.Method {
	if est == nil {
		return ""
	}
	return est.Method()
}

// MarshalState captures the group's complete state: the shared
// input-side reference (accumulator and estimator) plus every member
// engine's full state blob, framed and CRC-checked as a whole.
func (g *Group) MarshalState() ([]byte, error) { return g.AppendState(nil) }

// AppendState appends the MarshalState blob to dst, as
// Engine.AppendState does; member blobs are appended in place.
func (g *Group) AppendState(dst []byte) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	base := len(dst)
	b := binenc.AppendU32(dst, groupStateMagic)
	b = binenc.AppendU8(b, stateVersion)
	b = binenc.AppendString(b, string(g.method))
	b = binenc.AppendI64(b, int64(g.seen))
	b = binenc.AppendI64(b, g.start.UnixNano())
	b = g.inputAcc.AppendState(b)
	b = binenc.AppendBool(b, g.finished)
	b = binenc.AppendString(b, errString(g.finishErr))
	b = appendEstimator(b, g.estIn)
	b = binenc.AppendU32(b, uint32(len(g.members)))
	for i, eng := range g.members {
		var at int
		var err error
		b, at = binenc.ReserveLen(b)
		if b, err = eng.AppendState(b); err != nil {
			return dst, fmt.Errorf("sampling: group member %d (%s): %w", i, eng.specString, err)
		}
		binenc.PatchLen(b, at)
	}
	return sealState(b, base), nil
}

// RestoreGroup rebuilds a comparison group from a MarshalState blob.
// Like RestoreEngine it accepts only WithClock; member engines restore
// from their embedded blobs, each with its own CRC.
func RestoreGroup(data []byte, opts ...Option) (*Group, error) {
	cfg, err := restoreConfig(opts)
	if err != nil {
		return nil, err
	}
	r, err := openState(data, groupStateMagic, "group")
	if err != nil {
		return nil, err
	}
	method := estimate.Method(r.String())
	seen := int(r.I64())
	startNanos := r.I64()
	accState := stats.ReadAccumulatorState(r)
	finished := r.Bool()
	finishMsg := r.String()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sampling: group state payload: %w (%w)", err, ErrBadState)
	}
	g := &Group{
		clock:    cfg.clock,
		start:    time.Unix(0, startNanos),
		method:   method,
		seen:     seen,
		finished: finished,
	}
	g.inputAcc.SetState(accState)
	if finishMsg != "" {
		g.finishErr = errors.New(finishMsg)
	}
	est, err := readEstimator(r)
	if err != nil {
		return nil, err
	}
	g.setEstimator(est)
	n := int(r.U32())
	if r.Err() == nil && r.Remaining() < 4*n {
		return nil, fmt.Errorf("sampling: group state declares %d members beyond the blob: %w", n, ErrBadState)
	}
	for i := 0; i < n; i++ {
		blob := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("sampling: group state member %d: %w (%w)", i, err, ErrBadState)
		}
		eng, err := restoreEngine(blob, cfg.clock)
		if err != nil {
			return nil, fmt.Errorf("sampling: group state member %d: %w", i, err)
		}
		g.members = append(g.members, eng)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("sampling: group state payload: %w (%w)", err, ErrBadState)
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// validate checks what Engine.validate checks, for the group's input
// side and for each member: the input accumulator and estimator have
// consumed exactly the group's ticks with the group's method, and each
// member has seen those same ticks — its fidelity is scored against
// them — is finished exactly when the group is, and estimates only its
// kept side, with the group's method.
func (g *Group) validate() error {
	var bad string
	switch {
	case g.seen < 0:
		bad = "a negative tick count"
	case g.inputAcc.N() != g.seen:
		bad = fmt.Sprintf("%d values in its input accumulator", g.inputAcc.N())
	case methodOf(g.estIn) != g.method:
		bad = fmt.Sprintf("input estimator %q for method %q", methodOf(g.estIn), g.method)
	case g.estIn != nil && g.estIn.Ticks() != int64(g.seen):
		bad = fmt.Sprintf("an input estimator of %d ticks", g.estIn.Ticks())
	case g.finishErr != nil && !g.finished:
		bad = "a finish error but no finish"
	default:
		for i, eng := range g.members {
			if eng.seen != g.seen {
				return fmt.Errorf("sampling: group state member %d has seen %d ticks, the group %d: %w", i, eng.seen, g.seen, ErrBadState)
			}
			if eng.finished != g.finished {
				return fmt.Errorf("sampling: group state member %d has finished=%t, the group %t: %w", i, eng.finished, g.finished, ErrBadState)
			}
			if err := eng.validate("", g.method); err != nil {
				return fmt.Errorf("sampling: group state member %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("sampling: group state has %s (seen=%d): %w", bad, g.seen, ErrBadState)
}

// appendEstimator writes an optional estimator: absent as a single
// false byte, present as true + method + state blob.
func appendEstimator(dst []byte, est estimate.Estimator) []byte {
	if est == nil {
		return binenc.AppendBool(dst, false)
	}
	dst = binenc.AppendBool(dst, true)
	dst = binenc.AppendString(dst, string(est.Method()))
	dst, at := binenc.ReserveLen(dst)
	dst = est.AppendState(dst)
	binenc.PatchLen(dst, at)
	return dst
}

// readEstimator reads the optional-estimator form written by
// appendEstimator, rebuilding the estimator and restoring its ladder.
func readEstimator(r *binenc.Reader) (estimate.Estimator, error) {
	if !r.Bool() {
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("sampling: estimator state: %w (%w)", err, ErrBadState)
		}
		return nil, nil
	}
	method := estimate.Method(r.String())
	blob := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sampling: estimator state: %w (%w)", err, ErrBadState)
	}
	est, err := estimate.New(method)
	if err != nil {
		return nil, fmt.Errorf("sampling: estimator state: %w", err)
	}
	if err := est.RestoreState(blob); err != nil {
		return nil, fmt.Errorf("sampling: restore %q estimator state: %w", method, err)
	}
	return est, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

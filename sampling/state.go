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
// kept-sample sequence — and Hurst estimates — the original engine
// would have produced had it never stopped. The RNG position travels
// inside the kernel blob, so the random draw sequence continues
// exactly.

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

// sealState appends the CRC-32 trailer over the assembled payload.
func sealState(payload []byte) []byte {
	return binenc.AppendU32(payload, crc32.ChecksumIEEE(payload))
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
// only the clock is injectable — seed, budget and estimator are part of
// the serialized state, and overriding them would break the
// byte-identical-continuation invariant.
func restoreConfig(opts []Option) (config, error) {
	cfg := config{clock: time.Now}
	for _, opt := range opts {
		if opt == nil {
			return config{}, fmt.Errorf("sampling: nil option")
		}
		if err := opt(&cfg); err != nil {
			return config{}, err
		}
	}
	if cfg.seed != nil || cfg.budget != 0 || cfg.estimator != "" {
		return config{}, fmt.Errorf("sampling: restore accepts only WithClock; seed, budget and estimator are carried by the state blob")
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
func (e *Engine) MarshalState() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.impl.(core.StatefulSampler)
	if !ok {
		return nil, fmt.Errorf("sampling: technique %q does not expose kernel state", e.impl.Name())
	}
	kernel, err := st.AppendState(nil)
	if err != nil {
		return nil, fmt.Errorf("sampling: capture %q kernel state: %w", e.impl.Name(), err)
	}
	b := binenc.AppendU32(nil, engineStateMagic)
	b = binenc.AppendU8(b, stateVersion)
	b = binenc.AppendString(b, e.specString)
	b = binenc.AppendI64(b, int64(e.budget))
	b = binenc.AppendI64(b, e.start.UnixNano())
	b = binenc.AppendI64(b, int64(e.seen))
	b = binenc.AppendI64(b, int64(e.kept))
	b = binenc.AppendI64(b, int64(e.qualified))
	accState := e.acc.State()
	b = binenc.AppendI64(b, int64(accState.N))
	b = binenc.AppendF64(b, accState.Mean)
	b = binenc.AppendF64(b, accState.M2)
	b = binenc.AppendF64(b, accState.Sum)
	b = binenc.AppendF64(b, accState.Min)
	b = binenc.AppendF64(b, accState.Max)
	b = binenc.AppendBool(b, e.finished)
	b = binenc.AppendString(b, errString(e.finishErr))
	b = binenc.AppendBytes(b, kernel)
	if b, err = appendEstimator(b, e.estIn); err != nil {
		return nil, err
	}
	if b, err = appendEstimator(b, e.estKept); err != nil {
		return nil, err
	}
	return sealState(b), nil
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
	r, err := openState(data, engineStateMagic, "engine")
	if err != nil {
		return nil, err
	}
	return restoreEngine(r, cfg.clock)
}

// restoreEngine decodes the payload fields shared by the standalone and
// group-member forms.
func restoreEngine(r *binenc.Reader, clock func() time.Time) (*Engine, error) {
	specString := r.String()
	budget := int(r.I64())
	startNanos := r.I64()
	seen, kept, qualified := int(r.I64()), int(r.I64()), int(r.I64())
	accState := readAccState(r)
	finished := r.Bool()
	finishMsg := r.String()
	kernel := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sampling: engine state payload: %w (%w)", err, ErrBadState)
	}
	spec, err := Parse(specString)
	if err != nil {
		return nil, fmt.Errorf("sampling: engine state spec %q: %w", specString, err)
	}
	impl, err := core.BuildStream(spec.Technique, spec.Params)
	if err != nil {
		return nil, fmt.Errorf("sampling: rebuild %q from state: %w", specString, err)
	}
	st, ok := impl.(core.StatefulSampler)
	if !ok {
		return nil, fmt.Errorf("sampling: technique %q does not expose kernel state", impl.Name())
	}
	if err := st.RestoreState(kernel); err != nil {
		return nil, fmt.Errorf("sampling: restore %q kernel state: %w", impl.Name(), err)
	}
	if seen < 0 || kept < 0 || qualified < 0 || budget < 0 {
		return nil, fmt.Errorf("sampling: engine state counters negative (seen=%d kept=%d qualified=%d budget=%d): %w",
			seen, kept, qualified, budget, ErrBadState)
	}
	e := &Engine{
		spec:       spec,
		specString: specString,
		impl:       impl,
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
	e.batch = core.BatchOf(impl)
	if e.estIn, err = readEstimator(r); err != nil {
		return nil, err
	}
	if e.estKept, err = readEstimator(r); err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sampling: engine state payload: %w (%w)", err, ErrBadState)
	}
	return e, nil
}

// MarshalState captures the group's complete state: the shared
// input-side reference (accumulator and estimator) plus every member
// engine's full state blob, framed and CRC-checked as a whole.
func (g *Group) MarshalState() ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := binenc.AppendU32(nil, groupStateMagic)
	b = binenc.AppendU8(b, stateVersion)
	b = binenc.AppendString(b, string(g.method))
	b = binenc.AppendI64(b, int64(g.seen))
	b = binenc.AppendI64(b, g.start.UnixNano())
	accState := g.inputAcc.State()
	b = binenc.AppendI64(b, int64(accState.N))
	b = binenc.AppendF64(b, accState.Mean)
	b = binenc.AppendF64(b, accState.M2)
	b = binenc.AppendF64(b, accState.Sum)
	b = binenc.AppendF64(b, accState.Min)
	b = binenc.AppendF64(b, accState.Max)
	b = binenc.AppendBool(b, g.finished)
	b = binenc.AppendString(b, errString(g.finishErr))
	var err error
	if b, err = appendEstimator(b, g.estIn); err != nil {
		return nil, err
	}
	b = binenc.AppendU32(b, uint32(len(g.members)))
	for i, eng := range g.members {
		blob, err := eng.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("sampling: group member %d (%s): %w", i, eng.specString, err)
		}
		b = binenc.AppendBytes(b, blob)
	}
	return sealState(b), nil
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
	accState := readAccState(r)
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
	if method != "" && g.estIn == nil {
		return nil, fmt.Errorf("sampling: group state method %q carries no input estimator state: %w", method, ErrBadState)
	}
	n := int(r.U32())
	if r.Err() == nil && r.Remaining() < 4*n {
		return nil, fmt.Errorf("sampling: group state declares %d members beyond the blob: %w", n, ErrBadState)
	}
	for i := 0; i < n; i++ {
		blob := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("sampling: group state member %d: %w (%w)", i, err, ErrBadState)
		}
		eng, err := RestoreEngine(blob, WithClock(cfg.clock))
		if err != nil {
			return nil, fmt.Errorf("sampling: group state member %d: %w", i, err)
		}
		g.members = append(g.members, eng)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sampling: group state payload: %w (%w)", err, ErrBadState)
	}
	return g, nil
}

// appendEstimator writes an optional estimator: absent as a single
// false byte, present as true + method + state blob.
func appendEstimator(dst []byte, est estimate.Estimator) ([]byte, error) {
	if est == nil {
		return binenc.AppendBool(dst, false), nil
	}
	st, ok := est.(estimate.Stateful)
	if !ok {
		return nil, fmt.Errorf("sampling: estimator %q does not expose state", est.Method())
	}
	dst = binenc.AppendBool(dst, true)
	dst = binenc.AppendString(dst, string(est.Method()))
	dst = binenc.AppendBytes(dst, st.AppendState(nil))
	return dst, nil
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
	st, ok := est.(estimate.Stateful)
	if !ok {
		return nil, fmt.Errorf("sampling: estimator %q does not expose state", method)
	}
	if err := st.RestoreState(blob); err != nil {
		return nil, fmt.Errorf("sampling: restore %q estimator state: %w", method, err)
	}
	return est, nil
}

// readAccState reads the six accumulator fields.
func readAccState(r *binenc.Reader) (s stats.AccumulatorState) {
	s.N = int(r.I64())
	s.Mean = r.F64()
	s.M2 = r.F64()
	s.Sum = r.F64()
	s.Min = r.F64()
	s.Max = r.F64()
	return s
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

package core

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/binenc"
)

// Rand couples a *rand.Rand with the *rand.PCG source it draws from, so
// the generator's exact position in its stream can be captured and
// restored. rand.Rand itself keeps no state beyond its Source, and PCG
// implements encoding.BinaryMarshaler, which is what makes an exact
// snapshot possible: a restored Rand produces the byte-identical draw
// sequence the original would have continued with.
//
// Rand embeds *rand.Rand, so it is a drop-in replacement at every draw
// site (IntN, Float64, ...). Construct with NewSeededRand; the zero
// value is not usable.
type Rand struct {
	*rand.Rand
	pcg *rand.PCG
}

// ErrStateUnavailable is wrapped by state-capture methods when a
// component carries a random source whose position cannot be exported
// (a nil or foreign Rand).
var ErrStateUnavailable = errors.New("core: random source state unavailable")

// NewSeededRand builds the repo's standard deterministic generator: a
// PCG seeded from one uint64 (the second word is the golden-ratio
// scramble of the first, mirroring dist.NewRand), wrapped so its state
// stays exportable.
func NewSeededRand(seed uint64) *Rand {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &Rand{Rand: rand.New(pcg), pcg: pcg}
}

// appendState appends the generator's marshaled PCG position as a
// length-prefixed blob, in place behind a reserved prefix.
func (r *Rand) appendState(dst []byte) ([]byte, error) {
	if r == nil || r.pcg == nil {
		return nil, fmt.Errorf("core: cannot capture RNG position: %w", ErrStateUnavailable)
	}
	b, at := binenc.ReserveLen(dst)
	b, err := appendPCG(b, r.pcg)
	if err != nil {
		return nil, fmt.Errorf("core: marshal PCG state: %w", err)
	}
	binenc.PatchLen(b, at)
	return b, nil
}

// restoreState repositions the generator from a blob written by
// appendState.
func (r *Rand) restoreState(b []byte) error {
	if r == nil || r.pcg == nil {
		return fmt.Errorf("core: cannot restore RNG position: %w", ErrStateUnavailable)
	}
	if err := r.pcg.UnmarshalBinary(b); err != nil {
		return fmt.Errorf("core: restore PCG state: %w", err)
	}
	return nil
}

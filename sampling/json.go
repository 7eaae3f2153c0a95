package sampling

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/nanjson"
)

// specJSON is the wire form of a Spec: the technique name plus its raw
// key=value parameters, exactly the typed structure (never the spec-string
// syntax, which would re-tokenize values containing ',' or '=').
type specJSON struct {
	Technique string            `json:"technique"`
	Params    map[string]string `json:"params,omitempty"`
}

// MarshalJSON renders the spec as {"technique": ..., "params": {...}}.
// An empty parameter map is omitted, so Parse("systematic:interval=10")
// and its round-trip through JSON stay byte-stable.
func (s Spec) MarshalJSON() ([]byte, error) {
	return json.Marshal(specJSON{Technique: s.Technique, Params: s.Params})
}

// UnmarshalJSON accepts both wire forms of a spec: the canonical object
// {"technique": "bss", "params": {"rate": "1e-3"}} and, for convenience,
// a plain string "bss:rate=1e-3" in the spec syntax (parsed with Parse,
// so string-form errors wrap ErrBadSpec). The technique name must be
// non-empty; parameter values are not validated here — New is the
// validation point, exactly as with Parse.
func (s *Spec) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var str string
		if err := json.Unmarshal(data, &str); err != nil {
			return fmt.Errorf("sampling: spec string: %w", err)
		}
		spec, err := Parse(str)
		if err != nil {
			return err
		}
		*s = spec
		return nil
	}
	var w specJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	// Typos fail loudly, exactly as unknown spec parameters do: a
	// misspelled "params" key must not silently drop every parameter.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("sampling: spec object: %w", err)
	}
	if w.Technique == "" {
		return fmt.Errorf("sampling: spec object has no technique: %w", ErrBadSpec)
	}
	*s = Spec{Technique: w.Technique, Params: w.Params}
	return nil
}

// The documents below are written by internal/nanjson from their own
// json tags: NaN and ±Inf (a mean before the first sample, a variance
// below two, an unresolved Hurst estimate) become null, null comes back
// as NaN, the deferred engine error travels as its message, and At is
// RFC 3339 with nanoseconds.

// MarshalJSON renders the summary: the document the sampled daemon
// serves from GET /v1/streams/{id}/snapshot.
func (s Summary) MarshalJSON() ([]byte, error) { return nanjson.Marshal(&s) }

// UnmarshalJSON is the inverse of MarshalJSON. The concrete error type
// does not survive the wire, only its text — compare messages, not
// errors.Is, across a round trip.
func (s *Summary) UnmarshalJSON(data []byte) error { return nanjson.Unmarshal(data, s, false) }

// MarshalJSON renders the Hurst block: the document served whole by
// GET /v1/streams/{id}/hurst and nested under "hurst" in a snapshot.
func (h HurstSummary) MarshalJSON() ([]byte, error) { return nanjson.Marshal(&h) }

// UnmarshalJSON is the inverse of MarshalJSON.
func (h *HurstSummary) UnmarshalJSON(data []byte) error { return nanjson.Unmarshal(data, h, false) }

// MarshalJSON renders one member's scores.
func (f Fidelity) MarshalJSON() ([]byte, error) { return nanjson.Marshal(&f) }

// UnmarshalJSON is the inverse of MarshalJSON; unknown keys are refused.
func (f *Fidelity) UnmarshalJSON(data []byte) error { return nanjson.Unmarshal(data, f, true) }

// MarshalJSON renders one member of a comparison.
func (r TechniqueReport) MarshalJSON() ([]byte, error) { return nanjson.Marshal(&r) }

// UnmarshalJSON is the inverse of MarshalJSON; unknown keys are refused.
func (r *TechniqueReport) UnmarshalJSON(data []byte) error { return nanjson.Unmarshal(data, r, true) }

// MarshalJSON renders the comparison: the document the sampled daemon
// serves from GET /v1/groups/{id}.
func (c Comparison) MarshalJSON() ([]byte, error) { return nanjson.Marshal(&c) }

// UnmarshalJSON is the inverse of MarshalJSON. Unknown keys are
// rejected, exactly as the sampled daemon rejects them in requests — a
// misspelled key in a hand-built document must fail loudly, not
// silently read as the zero comparison.
func (c *Comparison) UnmarshalJSON(data []byte) error { return nanjson.Unmarshal(data, c, true) }

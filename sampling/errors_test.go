package sampling

import (
	"errors"
	"strings"
	"testing"
)

func TestParseSyntaxErrorsWrapErrBadSpec(t *testing.T) {
	for _, bad := range []string{"", ":", "bss:rate", "bss:rate=", "bss:=3", "bss:a=1,a=2"} {
		_, err := Parse(bad)
		if err == nil {
			t.Errorf("Parse(%q): expected error", bad)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("Parse(%q) error %v does not wrap ErrBadSpec", bad, err)
		}
	}
}

func TestNewUnknownTechnique(t *testing.T) {
	_, err := New(MustParse("warp-drive:rate=0.5"))
	if err == nil {
		t.Fatal("expected error for an unknown technique")
	}
	if !errors.Is(err, ErrUnknownTechnique) {
		t.Errorf("error %v does not wrap ErrUnknownTechnique", err)
	}
	// The message should still list the known techniques.
	if !strings.Contains(err.Error(), "bss") {
		t.Errorf("unknown-technique error should list the known names, got %v", err)
	}
}

func TestNewParamErrors(t *testing.T) {
	cases := []struct {
		spec      string
		wantParam string
	}{
		{"systematic:interval=ten", "interval"},        // non-numeric value
		{"systematic:interval=10,bogus=1", "bogus"},    // unconsumed key
		{"systematic", "interval"},                     // missing interval/rate
		{"systematic:rate=3", "rate"},                  // rate out of range
		{"bernoulli:rate=0.5,seed=-1", "seed"},         // negative unsigned
		{"bss:interval=10,L=zero,eps=1", "L"},          // non-integer L
		{"simple:n=50,seed=3,interval=10", "interval"}, // key the technique lacks
	}
	for _, tc := range cases {
		_, err := New(MustParse(tc.spec))
		if err == nil {
			t.Errorf("New(%q): expected error", tc.spec)
			continue
		}
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("New(%q) error %v is not a *ParamError", tc.spec, err)
			continue
		}
		if !strings.Contains(pe.Param, tc.wantParam) {
			t.Errorf("New(%q) ParamError.Param = %q, want mention of %q", tc.spec, pe.Param, tc.wantParam)
		}
		if pe.Technique == "" {
			t.Errorf("New(%q) ParamError.Technique is empty", tc.spec)
		}
	}
}

// TestNewSkipsStringRoundTrip pins the typed build path: a literal Spec
// whose value contains spec-syntax separators must not be re-tokenized
// into a bogus ErrBadSpec; it reaches the factory verbatim and fails as
// a *ParamError naming the right key.
func TestNewSkipsStringRoundTrip(t *testing.T) {
	_, err := New(Spec{Technique: "systematic", Params: map[string]string{"interval": "1,000"}})
	if err == nil {
		t.Fatal("expected error for non-integer interval")
	}
	if errors.Is(err, ErrBadSpec) {
		t.Errorf("typed construction leaked through the string parser: %v", err)
	}
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Param != "interval" || pe.Value != "1,000" {
		t.Errorf("want *ParamError for interval=\"1,000\", got %v", err)
	}
}

func TestRunInstancesTypedErrors(t *testing.T) {
	f := []float64{1, 2, 3, 4}
	_, err := RunInstances(f, 2.5, 3, BSSInstances(MustParse("bss:rate=2,L=10")))
	if err == nil {
		t.Fatal("expected error for rate outside (0,1]")
	}
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Param != "rate" {
		t.Errorf("want *ParamError about rate, got %v", err)
	}
	_, err = RunInstances(f, 2.5, 3, BSSInstances(MustParse("bss:L=10")))
	if err == nil {
		t.Fatal("expected error for missing interval/rate")
	}
	if !errors.As(err, &pe) || pe.Param != "interval" {
		t.Errorf("want *ParamError about interval, got %v", err)
	}
}

func TestOptionValidation(t *testing.T) {
	spec := MustParse("systematic:interval=10")
	if _, err := New(spec, WithBudget(0)); err == nil {
		t.Error("expected error for budget 0")
	}
	if _, err := New(spec, WithClock(nil)); err == nil {
		t.Error("expected error for nil clock")
	}
	if _, err := New(spec, nil); err == nil {
		t.Error("expected error for nil option")
	}
}

func TestParamErrorMessage(t *testing.T) {
	e := &ParamError{Technique: "bss", Param: "L", Value: "zero", Reason: "not an integer"}
	msg := e.Error()
	for _, want := range []string{"bss", "L", "zero", "not an integer"} {
		if !strings.Contains(msg, want) {
			t.Errorf("ParamError message %q missing %q", msg, want)
		}
	}
}

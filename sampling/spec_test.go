package sampling

import (
	"testing"
)

// specCases holds representative spec strings per registered technique.
// TestRoundTripCoversEveryTechnique fails when a newly registered
// technique has no entry here, keeping the property test honest.
var specCases = map[string][]string{
	"systematic": {
		"systematic:interval=1000",
		"systematic:interval=1000,offset=13",
		"systematic:rate=1e-3",
	},
	"stratified": {
		"stratified:interval=100,seed=7",
		"stratified:rate=0.01",
	},
	"simple": {
		"simple:n=50,seed=3",
		"simple:rate=0.01",
	},
	"simple-random": {
		"simple-random:n=50,seed=3",
		"simple-random:rate=1e-2,seed=9",
	},
	"bernoulli": {
		"bernoulli:rate=0.05,seed=4",
	},
	"bss": {
		"bss:rate=1e-3,L=10,eps=1.0",
		"bss:interval=1000,offset=3,L=5,eps=1.2,pre=20",
		"bss:interval=100,L=5,ath=2.5,placement=chase",
	},
	// Registered by engine_test.go: a technique without a batch kernel.
	"systematic-tick-only": {
		"systematic-tick-only:interval=7",
	},
}

// TestSpecRoundTrip is the round-trip property: for every registered
// technique and representative parameter set, Parse(s).String()
// re-parses to an equal Spec, and String() is a canonical fixed point.
func TestSpecRoundTrip(t *testing.T) {
	for technique, specs := range specCases {
		for _, s := range specs {
			spec, err := Parse(s)
			if err != nil {
				t.Fatalf("Parse(%q): %v", s, err)
			}
			if spec.Technique != technique {
				t.Errorf("Parse(%q).Technique = %q, want %q", s, spec.Technique, technique)
			}
			canonical := spec.String()
			back, err := Parse(canonical)
			if err != nil {
				t.Fatalf("Parse(%q) of canonical form: %v", canonical, err)
			}
			if !back.Equal(spec) {
				t.Errorf("round trip of %q: got %+v, want %+v", s, back, spec)
			}
			if again := back.String(); again != canonical {
				t.Errorf("String not canonical for %q: %q then %q", s, canonical, again)
			}
			// The canonical form must build the same engine the original does.
			if _, err := New(back); err != nil {
				t.Errorf("New(Parse(%q)): %v", canonical, err)
			}
		}
	}
}

func TestRoundTripCoversEveryTechnique(t *testing.T) {
	for _, name := range Techniques() {
		if len(specCases[name]) == 0 {
			t.Errorf("registered technique %q has no round-trip spec case; add one to specCases", name)
		}
	}
}

func TestSpecStringBareName(t *testing.T) {
	for _, s := range []string{"systematic", "systematic:"} {
		spec, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := spec.String(); got != "systematic" {
			t.Errorf("Parse(%q).String() = %q, want bare name", s, got)
		}
	}
}

func TestSpecWithDoesNotMutate(t *testing.T) {
	base := MustParse("systematic:interval=10")
	mod := base.With("offset", "3")
	if _, ok := base.Param("offset"); ok {
		t.Error("With mutated the receiver")
	}
	if v, ok := mod.Param("offset"); !ok || v != "3" {
		t.Errorf("With did not set the parameter: %+v", mod)
	}
	if base.Equal(mod) {
		t.Error("modified spec compares equal to the base")
	}
}

func TestSpecEqualNilVsEmptyParams(t *testing.T) {
	a := Spec{Technique: "systematic"}
	b := Spec{Technique: "systematic", Params: map[string]string{}}
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("nil and empty parameter maps should compare equal")
	}
}

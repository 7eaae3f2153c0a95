package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	name, p, err := ParseSpec("bss:rate=1e-3,L=10,eps=1.0")
	if err != nil {
		t.Fatal(err)
	}
	if name != "bss" {
		t.Errorf("name = %q", name)
	}
	if got, _ := p.Float("rate", 0); got != 1e-3 {
		t.Errorf("rate = %g", got)
	}
	if got, _ := p.Int("L", 0); got != 10 {
		t.Errorf("L = %d", got)
	}
	for _, bad := range []string{"", ":", "bss:rate", "bss:rate=", "bss:=3", "bss:a=1,a=2"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): expected error", bad)
		}
	}
	// Bare names and trailing colons are fine.
	for _, ok := range []string{"systematic", "systematic:"} {
		if _, _, err := ParseSpec(ok); err != nil {
			t.Errorf("ParseSpec(%q): %v", ok, err)
		}
	}
}

func TestLookupBuildsEveryTechnique(t *testing.T) {
	f := seq(10000)
	for _, tc := range []struct{ spec, name string }{
		{"systematic:interval=100", "systematic"},
		{"systematic:rate=0.01,offset=3", "systematic"},
		{"stratified:rate=0.01,seed=2", "stratified"},
		{"simple:n=50,seed=3", "simple-random"},
		{"simple-random:rate=0.01", "simple-random"},
		{"bernoulli:rate=0.05,seed=4", "bernoulli"},
		{"bss:rate=0.01,L=5,eps=1.2", "bss"},
		{"bss:interval=100,L=5,ath=2.5", "bss"},
	} {
		s, err := Lookup(tc.spec)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", tc.spec, err)
		}
		if s.Name() != tc.name {
			t.Errorf("Lookup(%q).Name() = %q, want %q", tc.spec, s.Name(), tc.name)
		}
		got, err := Collect(s, f)
		if err != nil {
			t.Fatalf("Collect(Lookup(%q)): %v", tc.spec, err)
		}
		if len(got) == 0 {
			t.Errorf("Lookup(%q) kept no samples", tc.spec)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"warp-drive:rate=0.5",            // unknown technique
		"systematic",                     // no interval or rate
		"systematic:interval=0",          // invalid config
		"systematic:rate=3",              // rate out of range
		"systematic:interval=10,bogus=1", // unconsumed parameter
		"systematic:interval=ten",        // non-numeric
		"bss:interval=10,placement=sideways",
		"bernoulli:rate=0.5,seed=-1",
	} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q): expected error", bad)
		}
	}
	// The unknown-name error lists the fixed technique table, which has
	// no registration step.
	_, err := Lookup("warp-drive")
	want := `core: unknown sampler "warp-drive" (known: ` + strings.Join(Names(), ", ") + `): unknown sampling technique`
	if err == nil || err.Error() != want || !errors.Is(err, ErrUnknownTechnique) {
		t.Errorf("unknown-name error = %v, want %q wrapping ErrUnknownTechnique", err, want)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	want := []string{"bernoulli", "bss", "simple", "simple-random", "stratified", "systematic"}
	if got := Names(); !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

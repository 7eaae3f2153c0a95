package core

import "testing"

func TestProbeOffsetsSpread(t *testing.T) {
	b := BSS{Interval: 10, L: 4, Epsilon: 1}
	got := b.probeOffsets(100, nil)
	want := []int{102, 104, 106, 108}
	if len(got) != len(want) {
		t.Fatalf("offsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("offset %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestProbesTruncatedAtSeriesEnd checks that probes scheduled past the
// end of the series simply never happen: the stream ends first.
func TestProbesTruncatedAtSeriesEnd(t *testing.T) {
	f := make([]float64, 105)
	for i := range f {
		f[i] = 1
	}
	for i := 100; i < 105; i++ {
		f[i] = 100 // trigger at base sample 100; burst through the tail
	}
	b := BSS{Interval: 10, L: 4, Threshold: 50}
	got, err := collect(b, f)
	if err != nil {
		t.Fatal(err)
	}
	// Spread probes for the trigger at 100 fall at 102, 104, 106, 108;
	// only the first two exist.
	if _, qualified := CountKinds(got); qualified != 2 {
		t.Errorf("qualified = %d, want 2 (probes beyond the series end must be dropped)", qualified)
	}
	for _, s := range got {
		if s.Index >= len(f) {
			t.Errorf("sample index %d beyond series end", s.Index)
		}
	}
}

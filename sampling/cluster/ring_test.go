package cluster

import (
	"fmt"
	"testing"
)

func ringIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%04d", i)
	}
	return ids
}

// TestRingDeterministic: two rings built from the same members (in any
// order, with duplicates) place every id identically — the property
// that lets independent routers agree without coordination.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"})
	b := NewRing([]string{"n3", "n1", "n2", "n1"})
	for _, id := range ringIDs(2000) {
		if a.Lookup(id) != b.Lookup(id) {
			t.Fatalf("rings disagree on %s: %s vs %s", id, a.Lookup(id), b.Lookup(id))
		}
	}
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("member counts %d/%d, want 3 (duplicates must collapse)", a.Len(), b.Len())
	}
}

// TestRingBalance: with default replicas, no member of a 4-node ring
// owns a grossly disproportionate share of 10k ids. The bound is
// loose (2x fair share) — this is a sanity check on the hash spread,
// not a statistical assertion.
func TestRingBalance(t *testing.T) {
	members := []string{"node-a", "node-b", "node-c", "node-d"}
	r := NewRing(members)
	counts := map[string]int{}
	ids := ringIDs(10000)
	for _, id := range ids {
		counts[r.Lookup(id)]++
	}
	fair := len(ids) / len(members)
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns nothing", m)
		}
		if counts[m] > 2*fair {
			t.Fatalf("member %s owns %d of %d ids (fair share %d) — hash spread is broken", m, counts[m], len(ids), fair)
		}
	}
}

// TestRingMinimalDisruption: removing one of four members remaps only
// the departed member's ids; every id owned by a surviving member
// stays put. That containment is what makes membership-change handoff
// proportional to 1/N instead of a full reshuffle.
func TestRingMinimalDisruption(t *testing.T) {
	old := NewRing([]string{"n1", "n2", "n3", "n4"})
	cur := NewRing([]string{"n1", "n2", "n4"})
	moved := 0
	for _, id := range ringIDs(10000) {
		from, to := old.Lookup(id), cur.Lookup(id)
		if from != "n3" && from != to {
			t.Fatalf("id %s moved %s -> %s although its owner survived", id, from, to)
		}
		if from == "n3" {
			if to == "n3" {
				t.Fatalf("id %s still owned by the removed member", id)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned nothing — balance test should have caught this")
	}
	// Adding the member back restores the original placement exactly.
	back := NewRing(append(cur.Members(), "n3"))
	for _, id := range ringIDs(1000) {
		if back.Lookup(id) != old.Lookup(id) {
			t.Fatalf("id %s placed differently after remove+add round trip", id)
		}
	}
}

// TestRingEmpty: the empty ring owns nothing and has no members.
func TestRingEmpty(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Lookup("x"); got != "" {
		t.Fatalf("empty ring owns %q", got)
	}
	if empty.Len() != 0 || len(empty.Members()) != 0 || empty.Has("") {
		t.Fatalf("empty ring reports members: len %d, %v", empty.Len(), empty.Members())
	}
}

// TestRingHas covers the membership probe both ways.
func TestRingHas(t *testing.T) {
	r := NewRing([]string{"n1", "n2"})
	if !r.Has("n1") || r.Has("n9") {
		t.Fatalf("Has misreports membership: n1=%v n9=%v", r.Has("n1"), r.Has("n9"))
	}
}

// TestRingSequentialIDsSpread is the regression test for the raw-FNV
// placement bug: ids from one sequential family ("flow-00"...) hash so
// close together under unfinalized FNV-1a that they all share one arc,
// putting an entire workload on one member. With the avalanche
// finalizer every member must pick up a share of a sequential family.
func TestRingSequentialIDsSpread(t *testing.T) {
	r := NewRing([]string{"http://10.0.0.1:8080", "http://10.0.0.2:8080"})
	counts := map[string]int{}
	for i := 0; i < 32; i++ {
		counts[r.Lookup(fmt.Sprintf("flow-%02d", i))]++
	}
	for _, m := range r.Members() {
		if counts[m] == 0 {
			t.Fatalf("member %s owns none of 32 sequential ids: %v", m, counts)
		}
	}
}

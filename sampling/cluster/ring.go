// Package cluster places named sampling streams onto a set of serving
// nodes and moves their exact engine state when the set changes — the
// placement and handoff layer under sampled's router mode.
//
// Stream placement is consistent hashing with virtual nodes: each
// member contributes replicas points on a 64-bit FNV-1a ring, and a
// stream id is owned by the first point at or after its own hash.
// Adding or removing one member therefore remaps only the ids that
// fall into the vanished (or newly claimed) arcs — about 1/N of the
// keyspace — instead of reshuffling everything, which is exactly what
// keeps a checkpoint-transfer handoff affordable on membership change.
//
// Rings are immutable values built by NewRing; Probe builds one over
// the members that answer healthy. Rebalance moves every stream and
// group its holder does not own to its owner by checkpoint transfer
// over a Transport (StateClient over HTTP), converging by observed
// placement rather than ring history. The package holds no clock and
// draws no randomness — placement is a pure function of membership
// and id, so any two routers with the same member list agree on every
// stream's owner without coordination.
package cluster

import (
	"slices"
	"sort"
	"strconv"
)

// replicas is the virtual-node count per member. 128 points per member
// keeps the expected load imbalance across members in the few-percent
// range without making ring construction noticeable.
const replicas = 128

// point is one virtual node: a position on the hash circle and the
// member that owns the arc ending there.
type point struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over a member set.
type Ring struct {
	members []string // sorted, unique
	points  []point  // sorted by hash
}

// hash64 positions a string on the circle: 64-bit FNV-1a finished with
// a splitmix64-style avalanche. Raw FNV-1a is NOT enough here — a
// trailing-byte difference is diffused by only one multiply, so
// sequential ids ("flow-00", "flow-01", ...) land within ~1e13 of each
// other on a 2^64 circle whose arcs average ~1e17 wide, which puts an
// entire id family inside one arc and therefore on one member. The
// finalizer avalanches every input bit across the word, restoring the
// uniform placement consistent hashing is built on. The position is
// still a pure function of the string, stable across processes.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// NewRing builds a ring over the given members (duplicates collapse;
// order is irrelevant). An empty member list is a valid ring that owns
// nothing.
func NewRing(members []string) *Ring {
	uniq := slices.Clone(members)
	sort.Strings(uniq)
	uniq = slices.Compact(uniq)
	r := &Ring{members: uniq}
	r.points = make([]point, 0, len(uniq)*replicas)
	for _, m := range uniq {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, point{hash64(m + "#" + strconv.Itoa(v)), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare but possible) break by member
		// so placement stays deterministic across processes.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Lookup returns the member owning id, or "" on an empty ring.
func (r *Ring) Lookup(id string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last point, the first point owns the arc
	}
	return r.points[i].member
}

// Members returns the sorted member list (a copy).
func (r *Ring) Members() []string { return slices.Clone(r.members) }

// Has reports whether member is on the ring.
func (r *Ring) Has(member string) bool {
	_, ok := slices.BinarySearch(r.members, member)
	return ok
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

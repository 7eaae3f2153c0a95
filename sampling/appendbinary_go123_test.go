//go:build !go1.24

package sampling

// warmAppendAllocs bounds the allocations of a warm AppendState. Before
// Go 1.24 PCG has no AppendBinary, so each randomized engine copies its
// RNG position out through MarshalBinary: three in the five-member
// group.
const warmAppendAllocs = 3

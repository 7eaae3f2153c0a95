//go:build go1.24

package sampling

// warmAppendAllocs bounds the allocations of a warm AppendState. From
// Go 1.24 the RNG position is appended in place (PCG.AppendBinary), so
// the whole blob is written without one.
const warmAppendAllocs = 0

//go:build race

package sampling

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation counts through the engines'
// pooled scratch buffers mean nothing there.
const raceEnabled = true

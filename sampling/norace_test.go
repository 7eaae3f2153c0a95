//go:build !race

package sampling

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false

// Package lint holds the samplelint analyzers: type-resolved static
// checks for the invariants the serving path's throughput depends on
// but the compiler cannot see. They replace the retired name-match
// AST test (hotpath_test.go), which keyed io.ReadAll detection on the
// literal import name, so an aliased import could smuggle a slurp past
// it. Batch-only ingest needs no analyzer: the public Engine has no
// per-tick entry point, so the compiler enforces it.
//
// The suite:
//
//   - noreadall: the serving side of the wire (sampling/wire,
//     cmd/sampled) must not reference io.ReadAll — bodies decode
//     incrementally through pooled buffers under MaxBytesReader
//     bounds, and a session stream never ends. Resolved against the
//     io package's ReadAll object, so aliased and dot imports cannot
//     smuggle it in.
//
//   - detsource: sampling, internal/core and sampling/estimate must
//     stay deterministic and injectable — no global math/rand draw
//     functions (engines draw from their seeded *rand.Rand; the
//     rand.New* constructors stay legal) and no time.Now calls (the
//     clock comes from WithClock; referencing time.Now as the default
//     clock value is the sanctioned idiom and stays legal).
//
//   - hotalloc: functions annotated //samplelint:hotpath may not call
//     fmt.Sprintf/Sprint/Sprintln, concatenate non-constant strings,
//     box a float64 into an interface, or grow a slice with an
//     uncapped append — the static backup for the AllocsPerRun
//     assertions on the wire codec, the hub offer path and the
//     estimator ticks. fmt.Errorf is exempt: error construction is
//     the cold path. Appends into a parameter (the strconv.Append*
//     idiom), into a reslice (buf[:0]) or into a slice made locally
//     with explicit capacity stay legal.
//
//   - nanwire: an exported struct in the sampling or sampling/estimate
//     package with a json-tagged plain float64 field must define
//     MarshalJSON — the null-for-NaN wire path — because encoding/json
//     fails on NaN and the engine's moments are legitimately NaN before
//     enough samples arrive. The sanctioned wire form is the tags on
//     the public type plus a one-line MarshalJSON through
//     internal/nanjson.
//
// Run the suite with `go run ./cmd/samplelint ./...`; it is a hard
// gate in the CI lint job. Each analyzer has analysistest-style
// fixtures under testdata/src, including seeded regressions for the
// false resolutions the old string guard made.
package lint

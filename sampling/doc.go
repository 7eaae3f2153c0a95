// Package sampling is the public, versioned API of the traffic
// sampling library: typed sampler specs, functional options, live
// streaming engines with batch-first ingest and non-destructive
// snapshots, comparison groups with per-technique fidelity scoring
// (the v2 surface), and the paper's evaluation metrics. internal/core
// holds the implementation this package wraps; everything a consumer
// needs is exported here.
//
// # Specs
//
// A sampler is described by a Spec — a technique name plus key=value
// parameters — parsed once from the compact string syntax and
// round-trippable through Spec.String:
//
//	spec, err := sampling.Parse("bss:rate=1e-3,L=10,eps=1.0")
//	spec.String() // "bss:L=10,eps=1.0,rate=1e-3" (canonical key order)
//
// Failures are typed: errors.Is(err, sampling.ErrUnknownTechnique) for
// unknown technique names, errors.Is(err, sampling.ErrBadSpec) for syntax
// errors, and errors.As(err, &pe) with pe a *sampling.ParamError for
// rejected parameters.
//
// # Engines
//
// New builds a live streaming engine from a spec, configured with
// functional options (a randomized technique's seed is a parameter of
// the spec itself, e.g. "bernoulli:rate=1e-3,seed=7"). Ticks go in as
// batches:
//
//	eng, err := sampling.New(spec, sampling.WithBudget(10_000))
//	for batch := range batches {
//	    // Atomic w.r.t. Snapshot and Finish; ErrFinished after Finish.
//	    if _, err := eng.OfferBatch(batch); err != nil {
//	        return err
//	    }
//	}
//	tail, err := eng.Finish() // samples only decidable at end of stream
//
// The engine is safe for concurrent observation: Snapshot returns the
// running kept/seen counts, mean and 95% confidence interval at any
// point mid-stream, from any goroutine, without finalizing anything —
// the primitive that turns a batch sampler into a live monitor:
//
//	go func() {
//	    for range time.Tick(time.Second) {
//	        sum := eng.Snapshot()
//	        log.Printf("%s: kept %d/%d mean %.3g CI [%.3g, %.3g]",
//	            sum.Technique, sum.Kept, sum.Seen, sum.Mean, sum.CILow, sum.CIHigh)
//	    }
//	}()
//
// The batch form of the paper's figures, Engine.Sample, drives the same
// engine over a whole series and returns every kept sample with its
// index, so streaming and batch output are identical by construction.
//
// OfferBatch and Sample are the only ways ticks enter an engine.
// OfferBatch feeds a slice of ticks under one lock acquisition and
// returns how many samples the batch finalized, or ErrFinished from
// that same acquisition when the engine is already finished. It
// dispatches to the technique's skip-based batch kernel
// (internal/core's Kernel.OfferBatch) that jumps from kept tick to
// kept tick instead of visiting each element, so batch ingest costs
// O(samples kept), not O(ticks seen). The kernel has no other entry point, and its output
// under a seed does not depend on how the stream is split into
// batches.
//
// Across processes the batch has a binary wire form: the sampling/wire
// subpackage frames a stream id plus a []float64 payload as a
// length-prefixed, CRC-checked tick-batch frame
// (application/x-tickbatch) that decodes with zero allocations
// straight into the slice OfferBatch consumes — the encoding the
// sampled daemon accepts on its ingest endpoints and streams over
// persistent sessions.
//
// # Comparison groups (v2)
//
// The paper's core experiment — competing techniques judged on the
// same self-similar input — is a first-class object. NewGroup builds
// one engine per spec, all fed the identical stream; the group itself
// keeps the unsampled reference (a shared accumulator and, with
// WithEstimator, a single shared input-side Hurst estimator, so the
// input work is paid once per tick, not once per member):
//
//	g, err := sampling.NewGroup([]sampling.Spec{
//	    sampling.MustParse("systematic:interval=100"),
//	    sampling.MustParse("bss:interval=100,L=10,eps=1.0"),
//	}, sampling.WithEstimator(estimate.AggVar))
//	kept, err := g.OfferBatch(ticks) // kept across members; ErrFinished after Finish
//	cmp := g.Snapshot()              // a Comparison
//
// A Comparison carries the input reference (Seen, Mean, Variance, the
// shared Hurst point) plus one TechniqueReport per member: its Summary
// (Hurst input side filled from the shared estimator) and a Fidelity
// block — kept ratio, mean and variance bias in the paper's eta
// convention (positive = under-estimation), and the kept-minus-input
// Hurst drift. Every member is observed at the same tick count, and a
// member's kept samples are byte-identical to a standalone Engine fed
// the same stream. Group.Sample is the batch form: one call, one
// []Sample per technique.
//
// On the wire a Comparison follows Summary's null-for-NaN convention
// (served by the sampled daemon under /v1/groups/{id}):
//
//	{"seen":100000,"mean":50000.5,"variance":8.3e8,"method":"aggvar",
//	 "hurst":{"h":0.79,"beta":0.42,"levels":13,"ticks":100000,"ok":true},
//	 "members":[{"summary":{"technique":"systematic",...},
//	             "fidelity":{"kept_ratio":0.01,"mean_bias":0.0004,
//	                         "variance_bias":-0.002,"hurst_drift":null}}],
//	 "finished":false,"at":"...","uptime_ns":123}
//
// # Online Hurst estimation
//
// WithEstimator attaches the sampling/estimate subsystem to an engine:
// two incremental Hurst estimators of the named method ("aggvar",
// "wavelet" or "rs"; unknown names wrap ErrUnknownEstimator), one over
// every offered tick and one over the kept sample values. Snapshot then
// carries a Summary.Hurst block — the paper's preservation question as
// a live reading:
//
//	eng, err := sampling.New(spec, sampling.WithEstimator(estimate.AggVar))
//	...
//	if hs := eng.Snapshot().Hurst; hs != nil && hs.Input.OK {
//	    log.Printf("input H %.3f, kept H %.3f, drift %+.3f", hs.Input.H, hs.Kept.H, hs.Drift)
//	}
//
// Estimator ticks are O(log n) worst case and allocate only when a
// stream first reaches a new power-of-two length, so the option is safe
// on the ingest hot path; the regression itself runs
// only when a snapshot is taken. On the wire the block appears under
// "hurst" with undetermined values as null, e.g.
//
//	"hurst": {"method": "aggvar",
//	          "input": {"h": 0.79, "beta": 0.42, "levels": 11, "ticks": 262144, "ok": true},
//	          "kept":  {"h": null, "beta": null, "levels": 0, "ticks": 131, "ok": false},
//	          "drift": null}
//
// # Beyond the engine
//
// The rest of the paper's toolkit is exported alongside: the evaluation
// metrics (MeanOf, Eta, Overhead, Efficiency), repeated-instance
// evaluation (RunInstances with spec factories), the BSS parameter
// design (NewBSSDesign), and the Theorem 1 Hurst-preservation checker
// (CheckSNC, GapPMF).
package sampling

package sampling

import (
	"fmt"
	"time"

	"repro/sampling/estimate"
)

// Option configures an Engine at construction; see New.
type Option func(*config) error

type config struct {
	budget    int
	clock     func() time.Time
	estimator estimate.Method
}

// newConfig applies opts over the defaults (the wall clock, no budget,
// no estimator).
func newConfig(opts []Option) (config, error) {
	cfg := config{clock: time.Now}
	for _, opt := range opts {
		if opt == nil {
			return config{}, fmt.Errorf("sampling: nil option")
		}
		if err := opt(&cfg); err != nil {
			return config{}, err
		}
	}
	return cfg, nil
}

// WithBudget caps the number of samples the engine keeps at n >= 1.
// Once the budget is exhausted the engine keeps consuming ticks (so the
// technique's internal state stays faithful to the stream) but emits no
// further samples — a hard memory/IO bound for long-running monitors.
func WithBudget(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("sampling: budget %d must be >= 1", n)
		}
		c.budget = n
		return nil
	}
}

// WithEstimator attaches an online Hurst estimator of the named method
// ("aggvar", "wavelet" or "rs") to the engine: one instance consumes
// every offered tick (the observed parent process) and a second
// consumes the kept sample values, so Snapshot reports the H the
// sampler saw next to the H it preserved — the paper's preservation
// question, live. The tick path allocates only when a stream first
// reaches a new power-of-two length; unknown method names wrap
// ErrUnknownEstimator.
func WithEstimator(method estimate.Method) Option {
	return func(c *config) error {
		// Validate eagerly so a typo fails at New, not first Snapshot.
		if _, err := estimate.New(method); err != nil {
			return fmt.Errorf("sampling: %w", err)
		}
		c.estimator = method
		return nil
	}
}

// WithClock substitutes the time source used to stamp snapshots
// (Summary.At, Summary.Uptime). The default is time.Now; tests inject a
// fake clock for deterministic summaries.
func WithClock(now func() time.Time) Option {
	return func(c *config) error {
		if now == nil {
			return fmt.Errorf("sampling: WithClock needs a non-nil time source")
		}
		c.clock = now
		return nil
	}
}

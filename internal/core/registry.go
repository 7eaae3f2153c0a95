package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec syntax: a sampler is described by "name" or
// "name:key=val,key=val,...", e.g.
//
//	systematic:interval=1000,offset=13
//	bss:rate=1e-3,L=10,eps=1.0
//	simple:rate=1e-2,seed=7
//
// Lookup parses the spec, finds the factory for name in the technique
// table (factories), builds the kernel and rejects any parameter the
// factory did not consume, so typos fail loudly instead of silently
// using defaults.

// Params carries the parsed key=value parameters of a spec to a Factory.
// Typed accessors record which keys were consumed; Lookup reports keys no
// accessor touched as errors.
type Params struct {
	raw  map[string]string
	used map[string]bool
}

// Float returns the named parameter as a float64, or def when absent.
func (p *Params) Float(key string, def float64) (float64, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, &ParamError{Param: key, Value: s, Reason: "not a number"}
	}
	return v, nil
}

// Int returns the named parameter as an int, or def when absent.
func (p *Params) Int(key string, def int) (int, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, &ParamError{Param: key, Value: s, Reason: "not an integer"}
	}
	return v, nil
}

// Uint returns the named parameter as a uint64, or def when absent.
func (p *Params) Uint(key string, def uint64) (uint64, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, &ParamError{Param: key, Value: s, Reason: "not an unsigned integer"}
	}
	return v, nil
}

func (p *Params) take(key string) (string, bool) {
	s, ok := p.raw[key]
	if ok {
		p.used[key] = true
	}
	return s, ok
}

// Map returns a copy of the raw key=value parameters, independent of the
// consumption tracking. The public sampling package uses it to build its
// typed Spec.
func (p *Params) Map() map[string]string {
	out := make(map[string]string, len(p.raw))
	for k, v := range p.raw {
		out[k] = v
	}
	return out
}

func (p *Params) unused() []string {
	var out []string
	for k := range p.raw {
		if !p.used[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// ParseSpec splits a spec string into its technique name and parameters.
// Syntax errors wrap ErrBadSpec.
func ParseSpec(spec string) (string, *Params, error) {
	name, rest, hasParams := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("core: empty sampler spec %q: %w", spec, ErrBadSpec)
	}
	p := &Params{raw: make(map[string]string), used: make(map[string]bool)}
	if hasParams && strings.TrimSpace(rest) != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if !ok || k == "" || v == "" {
				return "", nil, fmt.Errorf("core: spec parameter %q must be key=value: %w", kv, ErrBadSpec)
			}
			if _, dup := p.raw[k]; dup {
				return "", nil, fmt.Errorf("core: duplicate spec parameter %q: %w", k, ErrBadSpec)
			}
			p.raw[k] = v
		}
	}
	return name, p, nil
}

// Factory builds a fresh kernel from parsed spec parameters.
type Factory func(p *Params) (Kernel, error)

// factories is the technique table: the paper's five techniques, with
// simple random under two names. It is fixed at compile time and never
// written, so build and Names read it without a lock.
var factories = map[string]Factory{
	"systematic":    systematicFactory,
	"stratified":    stratifiedFactory,
	"simple":        simpleFactory,
	"simple-random": simpleFactory,
	"bernoulli":     bernoulliFactory,
	"bss":           bssFactory,
}

// Lookup builds a fresh kernel from a spec string like
// "bss:rate=1e-3,L=10,eps=1.0". Every name in the technique table is
// valid; see Names. Failures are typed: syntax errors wrap ErrBadSpec,
// unknown names wrap ErrUnknownTechnique, and rejected parameters
// surface as a *ParamError in the chain.
func Lookup(spec string) (Kernel, error) {
	name, p, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return build(name, p)
}

// Build builds a fresh kernel from a technique name and raw key=value
// parameters — the typed counterpart of Lookup, for callers that already
// hold structured parameters and should not round-trip them through the
// string syntax. Failure modes match Lookup's.
func Build(name string, kv map[string]string) (Kernel, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("core: empty sampler technique name: %w", ErrBadSpec)
	}
	return build(name, NewParams(kv))
}

// NewParams wraps a raw key=value map for factory consumption, copying
// it so the caller's map is never mutated or retained.
func NewParams(kv map[string]string) *Params {
	p := &Params{raw: make(map[string]string, len(kv)), used: make(map[string]bool)}
	for k, v := range kv {
		p.raw[k] = v
	}
	return p
}

// build resolves the factory and runs it, enforcing full parameter
// consumption — the shared tail of Lookup and Build.
func build(name string, p *Params) (Kernel, error) {
	f := factories[name]
	if f == nil {
		return nil, fmt.Errorf("core: unknown sampler %q (known: %s): %w",
			name, strings.Join(Names(), ", "), ErrUnknownTechnique)
	}
	k, err := f(p)
	if err != nil {
		var pe *ParamError
		if errors.As(err, &pe) && pe.Technique == "" {
			pe.Technique = name
		}
		return nil, fmt.Errorf("core: building %q: %w", name, err)
	}
	if u := p.unused(); len(u) > 0 {
		return nil, &ParamError{Technique: name, Param: strings.Join(u, ", "), Reason: "not accepted by this technique"}
	}
	return k, nil
}

// Names returns the sorted names of every technique in the table.
func Names() []string {
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SpecInterval resolves the base sampling interval of a technique's raw
// parameters by the rule the technique table applies — the entry point
// for callers outside the table, such as instance factories that spread
// offsets across the interval. A rejected parameter is a *ParamError
// naming the technique.
func SpecInterval(name string, kv map[string]string) (int, error) {
	interval, err := specInterval(NewParams(kv))
	var pe *ParamError
	if errors.As(err, &pe) {
		pe.Technique = name
	}
	return interval, err
}

// specInterval resolves the shared interval/rate parameter pair: an
// explicit interval wins; otherwise a rate r in (0,1] maps to the base
// interval round(1/r).
func specInterval(p *Params) (int, error) {
	interval, err := p.Int("interval", 0)
	if err != nil {
		return 0, err
	}
	rate, err := p.Float("rate", 0)
	if err != nil {
		return 0, err
	}
	if interval != 0 {
		return interval, nil
	}
	if rate == 0 {
		return 0, &ParamError{Param: "interval", Reason: "spec needs interval=N or rate=R"}
	}
	iv, err := IntervalForRate(rate)
	if err != nil {
		return 0, &ParamError{Param: "rate", Value: strconv.FormatFloat(rate, 'g', -1, 64), Reason: "outside (0,1]"}
	}
	return iv, nil
}

func systematicFactory(p *Params) (Kernel, error) {
	interval, err := specInterval(p)
	if err != nil {
		return nil, err
	}
	offset, err := p.Int("offset", 0)
	if err != nil {
		return nil, err
	}
	return Systematic{Interval: interval, Offset: offset}.Kernel()
}

func stratifiedFactory(p *Params) (Kernel, error) {
	interval, err := specInterval(p)
	if err != nil {
		return nil, err
	}
	seed, err := p.Uint("seed", 1)
	if err != nil {
		return nil, err
	}
	return Stratified{Interval: interval, Rng: newRand(seed)}.Kernel()
}

// simpleFactory serves both "simple" and "simple-random".
func simpleFactory(p *Params) (Kernel, error) {
	n, err := p.Int("n", 0)
	if err != nil {
		return nil, err
	}
	seed, err := p.Uint("seed", 1)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		return SimpleRandom{N: n, Rng: newRand(seed)}.Kernel()
	}
	rate, err := p.Float("rate", 0)
	if err != nil {
		return nil, err
	}
	return SimpleRandom{Rate: rate, Rng: newRand(seed)}.Kernel()
}

func bernoulliFactory(p *Params) (Kernel, error) {
	rate, err := p.Float("rate", 0)
	if err != nil {
		return nil, err
	}
	seed, err := p.Uint("seed", 1)
	if err != nil {
		return nil, err
	}
	return Bernoulli{Rate: rate, Rng: newRand(seed)}.Kernel()
}

func bssFactory(p *Params) (Kernel, error) {
	interval, err := specInterval(p)
	if err != nil {
		return nil, err
	}
	offset, err := p.Int("offset", 0)
	if err != nil {
		return nil, err
	}
	l, err := p.Int("L", 10)
	if err != nil {
		return nil, err
	}
	eps, err := p.Float("eps", 1.0)
	if err != nil {
		return nil, err
	}
	ath, err := p.Float("ath", 0)
	if err != nil {
		return nil, err
	}
	return BSS{Interval: interval, Offset: offset, L: l, Epsilon: eps, Threshold: ath}.Kernel()
}

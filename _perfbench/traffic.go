package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/lrd"
	"repro/sampling"
)

// The traffic every workload sends is one exact fractional Gaussian
// noise path with H=0.8 (Davies-Harte, internal/lrd), drawn from the
// run's seed. Each stream reads that path cyclically from its own
// seeded offset, so a stream's k-th tick is base[(offset+k) mod N]:
// long-range-dependent at every scale up to N ticks, reproducible from
// the seed alone, and 8 MiB of memory for any run length.
const (
	hurst    = 0.8
	baseLen  = 1 << 20
	maxBatch = 1 << 16 // the largest window a workload asks for (the handoff prefill)
)

// technique is one member of the paper's comparison with the spec the
// workloads use. Randomized techniques take a per-stream seed; the
// deterministic ones a per-stream phase offset instead.
type technique struct {
	name   string
	spec   string
	seeded bool
}

// techniques lists the five techniques in the order the workloads
// cycle through them. simple runs in fixed-size (n=) mode only: its
// rate mode keeps every tick until Finish.
var techniques = []technique{
	{"systematic", "systematic:interval=100", false},
	{"stratified", "stratified:interval=100", true},
	{"bernoulli", "bernoulli:rate=0.01", true},
	{"simple", "simple:n=1000", true},
	{"bss", "bss:interval=100,L=5,eps=1.0", false},
}

// specFor is technique t's spec for one stream, seeded from s.
func specFor(t technique, s uint64) string {
	if t.seeded {
		return fmt.Sprintf("%s,seed=%d", t.spec, s%1_000_000_007+1)
	}
	return fmt.Sprintf("%s,offset=%d", t.spec, s%100)
}

// traffic is the run's fGn path plus the seed every workload draws its
// stream offsets and sampler seeds from.
type traffic struct {
	base []float64 // baseLen points, then the first maxBatch again so no window wraps
	seed uint64
}

func newTraffic(seed uint64) (*traffic, error) {
	gen, err := lrd.NewFGN(hurst, baseLen, 100, 20)
	if err != nil {
		return nil, err
	}
	path := gen.Generate(rand.New(rand.NewPCG(seed, 0x6662656e6368)))
	return &traffic{base: append(path, path[:maxBatch]...), seed: seed}, nil
}

// streams builds n streams: stream i is named id(i), runs technique
// tech(i) and carries the specs specs(i, draw) returns. Offsets and
// seeds come from a generator restarted from the run's seed, so every
// setup of a run builds identical streams.
func (tr *traffic) streams(n int, id func(int) string, tech func(int) int, specs func(i int, draw func() uint64) []string) []*stream {
	rng := rand.New(rand.NewPCG(tr.seed, 0x73747265616d73))
	out := make([]*stream, n)
	for i := range out {
		out[i] = &stream{id: id(i), tech: tech(i), specs: specs(i, rng.Uint64), offset: rng.IntN(baseLen)}
	}
	return out
}

// stream is one sampling stream (or group) as the driver sees it: its
// id, its specs, where it reads the base path and how many ticks it
// has been sent.
type stream struct {
	id     string
	tech   int      // index into techniques; -1 for a group
	specs  []string // one spec for a stream, one per member for a group
	offset int
	pos    int // ticks sent so far
}

// window returns ticks [from, from+n) of a stream reading the base
// path at offset; n must not exceed maxBatch. The slice aliases the
// base path: callers must not modify it.
func (tr *traffic) window(offset, from, n int) []float64 {
	i := (offset + from) % baseLen
	return tr.base[i : i+n]
}

// next returns the stream's next n ticks and advances it.
func (tr *traffic) next(s *stream, n int) []float64 {
	w := tr.window(s.offset, s.pos, n)
	s.pos += n
	return w
}

// replay feeds a stream's whole tick history, in batches of batch
// ticks after a first batch of first ticks (0 for none), to offer.
func (tr *traffic) replay(s *stream, first, batch int, offer func([]float64)) {
	from := 0
	if first > 0 && s.pos >= first {
		offer(tr.window(s.offset, 0, first))
		from = first
	}
	for ; from < s.pos; from += batch {
		offer(tr.window(s.offset, from, batch))
	}
}

// parseSpecs parses a stream's or group's spec strings.
func parseSpecs(specs []string) ([]sampling.Spec, error) {
	out := make([]sampling.Spec, len(specs))
	for i, s := range specs {
		spec, err := sampling.Parse(s)
		if err != nil {
			return nil, err
		}
		out[i] = spec
	}
	return out, nil
}

package traffic

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/dist"
)

// Packet is one record of a packet-level trace, the unit the Bell Labs
// tcpdump traces provide.
type Packet struct {
	Time float64 // seconds since trace start
	Src  uint16  // origin host id
	Dst  uint16  // destination host id
	Size uint32  // bytes on the wire
}

// SynthConfig drives the OD-flow packet-trace synthesizer that substitutes
// for the proprietary Bell Labs traces: hundreds of origin-destination
// pairs, each an ON/OFF flow with Pareto-tailed burst durations (inducing
// the self-similarity of the aggregate, H = (3 - AlphaOn)/2) and
// Pareto-tailed per-burst transfer rates (inducing the heavy-tailed rate
// marginal the paper fits in Figure 8(b)). During a burst, packets with
// the classic trimodal Internet size mix are emitted at exponential gaps
// matching the burst's byte rate.
type SynthConfig struct {
	Pairs          int     // OD host pairs (e.g. 200)
	Duration       float64 // trace length in seconds (e.g. 2400 = 40 min)
	AlphaOn        float64 // Pareto shape of burst durations, in (1, 2)
	MeanOn         float64 // mean burst duration in seconds
	MeanOff        float64 // mean idle time between bursts in seconds
	MeanRate       float64 // mean bytes/second while bursting
	RateAlpha      float64 // 0 = constant rate, else Pareto shape in (1, 2]
	TargetMeanRate float64 // if > 0, rescale so aggregate bytes/s matches
}

// Validate checks the configuration.
func (c SynthConfig) Validate() error {
	switch {
	case c.Pairs < 1:
		return fmt.Errorf("traffic: Pairs=%d must be >= 1", c.Pairs)
	case !(c.Duration > 0):
		return fmt.Errorf("traffic: Duration=%g must be positive", c.Duration)
	case !(c.AlphaOn > 1) || c.AlphaOn >= 2:
		return fmt.Errorf("traffic: AlphaOn=%g must lie in (1,2)", c.AlphaOn)
	case !(c.MeanOn > 0):
		return fmt.Errorf("traffic: MeanOn=%g must be positive", c.MeanOn)
	case !(c.MeanOff > 0):
		return fmt.Errorf("traffic: MeanOff=%g must be positive", c.MeanOff)
	case !(c.MeanRate > 0):
		return fmt.Errorf("traffic: MeanRate=%g must be positive", c.MeanRate)
	case c.RateAlpha != 0 && (!(c.RateAlpha > 1) || c.RateAlpha > 2):
		return fmt.Errorf("traffic: RateAlpha=%g must be 0 or in (1,2]", c.RateAlpha)
	}
	return nil
}

// Hurst returns the asymptotic Hurst parameter (3 - AlphaOn)/2 induced by
// the heavy-tailed burst durations.
func (c SynthConfig) Hurst() float64 { return (3 - c.AlphaOn) / 2 }

// packetSizes is the classic trimodal Internet packet-length mix.
var packetSizes = [...]uint32{40, 576, 1500}
var packetSizeCum = [...]float64{0.4, 0.65, 1.0}

// samplePacketSize draws a packet length from the trimodal mix.
func samplePacketSize(rng *rand.Rand) uint32 {
	u := rng.Float64()
	for i, c := range packetSizeCum {
		if u <= c {
			return packetSizes[i]
		}
	}
	return packetSizes[len(packetSizes)-1]
}

// SynthesizeTrace generates a time-sorted packet trace under cfg.
func SynthesizeTrace(cfg SynthConfig, rng *rand.Rand) ([]Packet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	onDist, err := dist.NewPareto(cfg.AlphaOn, cfg.MeanOn*(cfg.AlphaOn-1)/cfg.AlphaOn)
	if err != nil {
		return nil, fmt.Errorf("traffic: burst duration distribution: %w", err)
	}
	var rateDist dist.Pareto
	if cfg.RateAlpha != 0 {
		rateDist, err = dist.NewPareto(cfg.RateAlpha, cfg.MeanRate*(cfg.RateAlpha-1)/cfg.RateAlpha)
		if err != nil {
			return nil, fmt.Errorf("traffic: burst rate distribution: %w", err)
		}
	}
	burstRate := func() float64 {
		if cfg.RateAlpha == 0 {
			return cfg.MeanRate
		}
		return rateDist.Sample(rng)
	}
	// Mean packet length of the trimodal mix, used to convert a byte rate
	// into a packet rate.
	var meanPkt float64
	prev := 0.0
	for i, c := range packetSizeCum {
		meanPkt += float64(packetSizes[i]) * (c - prev)
		prev = c
	}
	duty := cfg.MeanOn / (cfg.MeanOn + cfg.MeanOff)
	estPackets := int(float64(cfg.Pairs)*duty*cfg.Duration*cfg.MeanRate/meanPkt) + 16
	pkts := make([]Packet, 0, estPackets)
	for pair := 0; pair < cfg.Pairs; pair++ {
		src := uint16(pair * 2)
		dst := uint16(pair*2 + 1)
		// Random initial phase, like the ON/OFF aggregate generator.
		t := -rng.Float64() * (cfg.MeanOn + cfg.MeanOff)
		for t < cfg.Duration {
			// OFF period.
			t += rng.ExpFloat64() * cfg.MeanOff
			// ON burst: Pareto duration, Pareto byte rate.
			dur := onDist.Sample(rng)
			rate := burstRate()
			end := t + dur
			pktGap := meanPkt / rate // mean seconds between packets
			for pt := t + rng.ExpFloat64()*pktGap; pt < end && pt < cfg.Duration; pt += rng.ExpFloat64() * pktGap {
				if pt >= 0 {
					pkts = append(pkts, Packet{Time: pt, Src: src, Dst: dst, Size: samplePacketSize(rng)})
				}
			}
			t = end
		}
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time })
	// The trace is time-sorted, so its last packet closes the span.
	if cfg.TargetMeanRate > 0 && len(pkts) > 0 {
		if span := pkts[len(pkts)-1].Time; span > 0 {
			scale := cfg.TargetMeanRate / (float64(totalBytes(pkts)) / span)
			for i := range pkts {
				s := float64(pkts[i].Size) * scale
				if s < 1 {
					s = 1
				}
				pkts[i].Size = uint32(s + 0.5)
			}
		}
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("traffic: synthesis produced no packets (duration %g too short?)", cfg.Duration)
	}
	return pkts, nil
}

// totalBytes sums a trace's packet sizes.
func totalBytes(pkts []Packet) uint64 {
	var n uint64
	for _, p := range pkts {
		n += uint64(p.Size)
	}
	return n
}

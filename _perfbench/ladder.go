package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/sampling"
	"repro/sampling/estimate"
	"repro/sampling/hub"
	"repro/sampling/wire"
)

// The traced run: after the end-to-end run, the driver replays the
// run's exact tick sequence in process through the exported functions
// of each layer, timing each one around its calls. The rungs of a
// workload are the layers its requests pass through, each as a share of
// the daemon's CPU time per acknowledged tick; what the rungs do not
// explain (HTTP parsing, the body read, JSON responses, scheduling and
// GC) is reported as the http.residual_* remainder, so rungs plus
// residual equal the measured server CPU by construction.
//
// A replay covers at most ladderTicks ticks of the sequence (all of it
// when the run was shorter); per-tick costs are stationary, so the
// prefix stands for the whole.
const ladderTicks = 1 << 25

// rung is one layer's share of the daemon's cost per acknowledged tick.
type rung struct {
	name      string
	nsPerTick float64
}

type ladder struct {
	rungs  []rung
	layers map[string]float64 // per-layer metrics by name
}

func newLadder() *ladder { return &ladder{layers: map[string]float64{}} }

// add records a rung.
func (l *ladder) add(name string, total time.Duration, ticks int64) {
	l.rungs = append(l.rungs, rung{name, float64(total.Nanoseconds()) / float64(ticks)})
}

// set records a per-layer metric unless an earlier, more specific
// measurement already did.
func (l *ladder) set(name string, v float64) {
	if _, ok := l.layers[name]; !ok {
		l.layers[name] = v
	}
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order.
func perLayer() []metricName {
	out := []metricName{
		{"wire.decode_ns_per_tick", "ns"},
		{"wire.frames", "count"},
		{"hub.dispatch_ns_per_batch", "ns"},
		{"hub.detach_us", "us"},
		{"hub.restore_stream_us", "us"},
		{"group.input_ns_per_tick", "ns"},
		{"group.snapshot_us", "us"},
		{"json.comparison_us", "us"},
	}
	for _, m := range estimate.Methods() {
		out = append(out, metricName{"estimate." + string(m) + "_ns_per_tick", "ns"})
	}
	for _, t := range techniques {
		out = append(out,
			metricName{"engine." + t.name + "_ns_per_tick", "ns"},
			metricName{"engine." + t.name + "_allocs_per_batch", "count"})
	}
	for _, t := range techniques {
		out = append(out,
			metricName{"persist." + t.name + "_marshal_us", "us"},
			metricName{"persist." + t.name + "_restore_us", "us"},
			metricName{"persist." + t.name + "_state_bytes", "bytes"})
	}
	return append(out,
		metricName{"ladder.rungs_ns_per_tick", "ns"},
		metricName{"ladder.server_cpu_ns_per_tick", "ns"},
		metricName{"http.residual_ns_per_tick", "ns"},
		metricName{"ladder.rungs_us_per_op", "us"},
		metricName{"ladder.server_cpu_us_per_op", "us"},
		metricName{"http.residual_us_per_op", "us"},
		metricName{"driver.encode_ns_per_tick", "ns"},
		metricName{"driver.late_p99_ms", "ms"},
	)
}

// reconcile adds the ladder's totals and the end-to-end side: the
// daemon's CPU time per tick (server, the reported end-to-end figure)
// and per operation, the residual, and the driver's own health over
// the pooled window w.
func (l *ladder) reconcile(w *window, server float64) {
	var sum float64
	for _, r := range l.rungs {
		sum += r.nsPerTick
	}
	ticksPerOp := float64(w.ticks) / float64(w.ops)
	l.layers["ladder.rungs_ns_per_tick"] = sum
	l.layers["ladder.server_cpu_ns_per_tick"] = server
	l.layers["http.residual_ns_per_tick"] = server - sum
	l.layers["ladder.rungs_us_per_op"] = sum * ticksPerOp / 1e3
	l.layers["ladder.server_cpu_us_per_op"] = server * ticksPerOp / 1e3
	l.layers["http.residual_us_per_op"] = (server - sum) * ticksPerOp / 1e3
	l.layers["driver.encode_ns_per_tick"] = float64(w.encode.Nanoseconds()) / float64(w.encTicks)
	l.layers["driver.late_p99_ms"] = quantile(w.late, 0.99)
}

// metrics is the --trace 1 metric set; a missing layer is a bug.
func (l *ladder) metrics() (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range perLayer() {
		v, ok := l.layers[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out, nil
}

// print writes the ladder, largest rung first, then every per-layer
// metric.
func (l *ladder) print(out io.Writer) {
	server := l.layers["ladder.server_cpu_ns_per_tick"]
	rungs := append([]rung(nil), l.rungs...)
	sort.SliceStable(rungs, func(i, j int) bool { return rungs[i].nsPerTick > rungs[j].nsPerTick })
	fmt.Fprintln(out, "ladder (ns per acknowledged tick, share of daemon CPU)")
	for _, r := range rungs {
		fmt.Fprintf(out, "  %-32s %12.4f ns %6.1f%%\n", r.name, r.nsPerTick, 100*r.nsPerTick/server)
	}
	sum := l.layers["ladder.rungs_ns_per_tick"]
	fmt.Fprintf(out, "  %-32s %12.4f ns %6.1f%%\n", "sum of rungs", sum, 100*sum/server)
	fmt.Fprintf(out, "  %-32s %12.4f ns %6.1f%%\n", "http.residual", server-sum, 100*(server-sum)/server)
	fmt.Fprintf(out, "  %-32s %12.4f ns\n", "daemon CPU (utime+stime)", server)
	fmt.Fprintln(out, "per-layer metrics")
	for _, m := range perLayer() {
		printMetric(out, m.name, metric{l.layers[m.name], m.unit}, "")
	}
}

// decodeFrames times decoding every frame of body, as the daemon's
// ingest handlers do, and returns the frame count.
func decodeFrames(dec *wire.Decoder, body []byte) (int, time.Duration, error) {
	dec.Reset(bytes.NewReader(body))
	n := 0
	start := time.Now()
	for {
		_, _, err := dec.ReadFrame()
		if err == io.EOF {
			return n, time.Since(start), nil
		}
		if err != nil {
			return n, 0, err
		}
		n++
	}
}

func since(t time.Time, acc *time.Duration) { *acc += time.Since(t) }

// sink keeps warm's reads from being optimized away.
var sink float64

// warm reads a batch once, untimed, so the timed offers after it find
// it in cache, as the daemon's offer finds the batch it has just
// decoded; without it the first of two offers timed on the same batch
// pays the cache misses for both and the subtraction between them is
// biased.
func warm(ticks []float64) {
	for _, v := range ticks {
		sink += v
	}
}

func (w *streamsSession) ladder(*window) (*ladder, error) {
	h := hub.New()
	shadows := make([]*sampling.Engine, len(w.streams))
	for i, s := range w.streams {
		specs, err := parseSpecs(s.specs)
		if err != nil {
			return nil, err
		}
		if err := h.Create(s.id, specs[0]); err != nil {
			return nil, err
		}
		if shadows[i], err = oracleEngine(s, ""); err != nil {
			return nil, err
		}
	}
	rounds := min(w.streams[0].pos, ladderTicks/len(w.streams)) / sessionFrame
	dec := wire.NewDecoder(nil, 0)
	var buf []byte
	var decodeT, hubT time.Duration
	engT := make([]time.Duration, len(techniques))
	engTicks := make([]int64, len(techniques))
	frames := 0
	for r := 0; r < rounds; r++ {
		for c := 0; c < 2; c++ {
			half := w.half(c)
			buf = buf[:0]
			for _, s := range half {
				buf, _ = wire.AppendFrame(buf, s.id, w.tr.window(s.offset, r*sessionFrame, sessionFrame))
			}
			n, d, err := decodeFrames(dec, buf)
			if err != nil {
				return nil, err
			}
			frames += n
			decodeT += d
			for _, s := range half {
				warm(w.tr.window(s.offset, r*sessionFrame, sessionFrame))
			}
			t := time.Now()
			for _, s := range half {
				if _, err := h.OfferBatch(s.id, w.tr.window(s.offset, r*sessionFrame, sessionFrame)); err != nil {
					return nil, err
				}
			}
			since(t, &hubT)
			for tech := range techniques {
				t := time.Now()
				for i, s := range half {
					if s.tech == tech {
						shadows[c*len(half)+i].OfferBatch(w.tr.window(s.offset, r*sessionFrame, sessionFrame))
						engTicks[tech] += sessionFrame
					}
				}
				since(t, &engT[tech])
			}
		}
	}
	ticks := int64(frames) * sessionFrame
	var engAll time.Duration
	l := newLadder()
	l.add("wire.decode", decodeT, ticks)
	for tech, t := range techniques {
		engAll += engT[tech]
		if engTicks[tech] > 0 {
			l.add("engine."+t.name, engT[tech], ticks)
			l.set("engine."+t.name+"_ns_per_tick", float64(engT[tech].Nanoseconds())/float64(engTicks[tech]))
		}
	}
	l.add("hub.dispatch", hubT-engAll, ticks)
	l.set("wire.decode_ns_per_tick", float64(decodeT.Nanoseconds())/float64(ticks))
	l.set("wire.frames", float64(frames))
	l.set("hub.dispatch_ns_per_batch", float64((hubT-engAll).Nanoseconds())/float64(frames))
	return l, probe(l, w.tr, w.streams, sessionFrame, nil)
}

func (w *groupsEstimator) ladder(win *window) (*ladder, error) {
	h := hub.New()
	groups := make([]*sampling.Group, len(w.groups))
	members := make([][]*sampling.Engine, len(w.groups))
	for i, g := range w.groups {
		specs, err := parseSpecs(g.specs)
		if err != nil {
			return nil, err
		}
		if err := h.CreateGroup(g.id, specs, sampling.WithEstimator(estimate.AggVar)); err != nil {
			return nil, err
		}
		if groups[i], err = oracleGroup(g); err != nil {
			return nil, err
		}
		// The shadow members carry no estimator: the public API attaches
		// a kept-side-only estimator inside a group alone, so its cost
		// per kept sample (about 1% of ticks) counts in group.input.
		for _, spec := range specs {
			eng, err := sampling.New(spec)
			if err != nil {
				return nil, err
			}
			members[i] = append(members[i], eng)
		}
	}
	batches := min(w.next, ladderTicks/groupFrame)
	// Snapshots are replayed at the timed window's ratio of reads to
	// ingest batches.
	snapEvery := max(1, int(win.ops)/max(1, len(win.snapshots)))
	dec := wire.NewDecoder(nil, 0)
	var buf []byte
	var decodeT, hubT, groupT, snapT, jsonT time.Duration
	memT := make([]time.Duration, len(techniques))
	snaps := 0
	for k := 0; k < batches; k++ {
		gi := k % len(w.groups)
		g := w.groups[gi]
		ticks := w.tr.window(g.offset, k/len(w.groups)*groupFrame, groupFrame)
		buf, _ = wire.AppendFrame(buf[:0], "", ticks)
		_, d, err := decodeFrames(dec, buf)
		if err != nil {
			return nil, err
		}
		decodeT += d
		warm(ticks)
		t := time.Now()
		if _, err := h.OfferGroupBatch(g.id, ticks); err != nil {
			return nil, err
		}
		since(t, &hubT)
		t = time.Now()
		groups[gi].OfferBatch(ticks)
		since(t, &groupT)
		for m, eng := range members[gi] {
			t := time.Now()
			eng.OfferBatch(ticks)
			since(t, &memT[m])
		}
		if k%snapEvery == 0 {
			t := time.Now()
			cmp := groups[gi].Snapshot()
			since(t, &snapT)
			t = time.Now()
			if _, err := json.Marshal(cmp); err != nil {
				return nil, err
			}
			since(t, &jsonT)
			snaps++
		}
	}
	ticks := int64(batches) * groupFrame
	var memAll time.Duration
	l := newLadder()
	l.add("wire.decode", decodeT, ticks)
	l.add("hub.dispatch", hubT-groupT, ticks)
	for m, t := range techniques {
		memAll += memT[m]
		l.add("engine."+t.name, memT[m], ticks)
		l.set("engine."+t.name+"_ns_per_tick", float64(memT[m].Nanoseconds())/float64(ticks))
	}
	l.add("group.input", groupT-memAll, ticks)
	// A snapshot's cost per acknowledged tick is its cost times the
	// window's reads per tick.
	perSnap := (snapT + jsonT) / time.Duration(snaps)
	readsPerTick := float64(len(win.snapshots)) / float64(win.ticks)
	l.rungs = append(l.rungs, rung{"group.snapshot+json", float64(perSnap.Nanoseconds()) * readsPerTick})
	l.set("wire.decode_ns_per_tick", float64(decodeT.Nanoseconds())/float64(ticks))
	l.set("wire.frames", float64(batches))
	l.set("hub.dispatch_ns_per_batch", float64((hubT-groupT).Nanoseconds())/float64(batches))
	l.set("group.input_ns_per_tick", float64((groupT-memAll).Nanoseconds())/float64(ticks))
	l.set("group.snapshot_us", float64(snapT.Nanoseconds())/float64(snaps)/1e3)
	l.set("json.comparison_us", float64(jsonT.Nanoseconds())/float64(snaps)/1e3)
	return l, probe(l, w.tr, w.groups, groupFrame, nil)
}

func (w *handoff) ladder(*window) (*ladder, error) {
	h := hub.New()
	shadows := make([]*sampling.Engine, len(w.streams))
	for i, s := range w.streams {
		specs, err := parseSpecs(s.specs)
		if err != nil {
			return nil, err
		}
		if err := h.Create(s.id, specs[0], sampling.WithEstimator(estimate.AggVar)); err != nil {
			return nil, err
		}
		if shadows[i], err = oracleEngine(s, string(estimate.AggVar)); err != nil {
			return nil, err
		}
		prefill := w.tr.window(s.offset, 0, handoffPrefill)
		if _, err := h.OfferBatch(s.id, prefill); err != nil {
			return nil, err
		}
		shadows[i].OfferBatch(prefill)
	}
	steps := min(w.next, ladderTicks/handoffFrame)
	dec := wire.NewDecoder(nil, 0)
	var buf []byte
	var detachT, restoreT, decodeT, hubT, engT time.Duration
	for k := 0; k < steps; k++ {
		i := k % len(w.streams)
		s := w.streams[i]
		t := time.Now()
		blob, err := h.Detach(s.id)
		if err != nil {
			return nil, err
		}
		since(t, &detachT)
		t = time.Now()
		if err := h.RestoreStream(s.id, blob); err != nil {
			return nil, err
		}
		since(t, &restoreT)
		ticks := w.tr.window(s.offset, handoffPrefill+k/len(w.streams)*handoffFrame, handoffFrame)
		buf, _ = wire.AppendFrame(buf[:0], "", ticks)
		_, d, err := decodeFrames(dec, buf)
		if err != nil {
			return nil, err
		}
		decodeT += d
		// The shadow moves too, untimed, so that it is as freshly
		// restored, and as hot in cache, as the hub's engine.
		if blob, err = shadows[i].MarshalState(); err != nil {
			return nil, err
		}
		if shadows[i], err = sampling.RestoreEngine(blob); err != nil {
			return nil, err
		}
		warm(ticks)
		t = time.Now()
		if _, err := h.OfferBatch(s.id, ticks); err != nil {
			return nil, err
		}
		since(t, &hubT)
		t = time.Now()
		shadows[i].OfferBatch(ticks)
		since(t, &engT)
	}
	ticks := int64(steps) * handoffFrame
	l := newLadder()
	l.add("hub.detach", detachT, ticks)
	l.add("hub.restore_stream", restoreT, ticks)
	l.add("wire.decode", decodeT, ticks)
	l.add("hub.dispatch", hubT-engT, ticks)
	l.add("engine+aggvar", engT, ticks)
	l.set("hub.detach_us", float64(detachT.Nanoseconds())/float64(steps)/1e3)
	l.set("hub.restore_stream_us", float64(restoreT.Nanoseconds())/float64(steps)/1e3)
	l.set("wire.decode_ns_per_tick", float64(decodeT.Nanoseconds())/float64(ticks))
	l.set("wire.frames", float64(steps))
	l.set("hub.dispatch_ns_per_batch", float64((hubT-engT).Nanoseconds())/float64(steps))
	return l, probe(l, w.tr, w.streams, handoffFrame, shadows)
}

// probe measures every per-layer metric the workload's own replay did
// not, on the workload's traffic: one engine per technique without an
// estimator, each estimator's Tick loop, a five-member group, and the
// persist codec and hub detach/install on engines carrying aggvar
// (persisted, when given: the handoff's own streams).
func probe(l *ladder, tr *traffic, streams []*stream, batch int, persisted []*sampling.Engine) error {
	const probeTicks = 1 << 20
	offset := streams[0].offset
	feed := func(offer func([]float64)) {
		for from := 0; from < probeTicks; from += batch {
			offer(tr.window(offset, from, batch))
		}
	}
	var ms0, ms1 runtime.MemStats
	for _, t := range techniques {
		eng, err := sampling.New(sampling.MustParse(specFor(t, tr.seed)))
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		feed(func(b []float64) { eng.OfferBatch(b) })
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		l.set("engine."+t.name+"_ns_per_tick", float64(elapsed.Nanoseconds())/probeTicks)
		l.set("engine."+t.name+"_allocs_per_batch", float64(ms1.Mallocs-ms0.Mallocs)/float64(probeTicks/batch))
	}
	for _, m := range estimate.Methods() {
		est, err := estimate.New(m)
		if err != nil {
			return err
		}
		start := time.Now()
		feed(func(b []float64) {
			for _, v := range b {
				est.Tick(v)
			}
		})
		l.set("estimate."+string(m)+"_ns_per_tick", float64(time.Since(start).Nanoseconds())/probeTicks)
	}
	if err := probeGroup(l, tr, feed); err != nil {
		return err
	}
	if persisted == nil {
		for i := 0; i < 16*len(techniques); i++ {
			s := streams[i%len(streams)]
			eng, err := sampling.New(sampling.MustParse(specFor(techniques[i%len(techniques)], uint64(i))),
				sampling.WithEstimator(estimate.AggVar))
			if err != nil {
				return err
			}
			eng.OfferBatch(tr.window(s.offset+i, 0, handoffPrefill))
			persisted = append(persisted, eng)
		}
	}
	return probePersist(l, persisted)
}

// probeGroup measures the group input side and snapshot encoding on a
// five-member aggvar group.
func probeGroup(l *ladder, tr *traffic, feed func(func([]float64))) error {
	specs := make([]sampling.Spec, len(techniques))
	members := make([]*sampling.Engine, len(techniques))
	for i, t := range techniques {
		specs[i] = sampling.MustParse(specFor(t, tr.seed+uint64(i)))
		eng, err := sampling.New(specs[i])
		if err != nil {
			return err
		}
		members[i] = eng
	}
	g, err := sampling.NewGroup(specs, sampling.WithEstimator(estimate.AggVar))
	if err != nil {
		return err
	}
	var groupT, memT time.Duration
	ticks := 0
	feed(func(b []float64) {
		t := time.Now()
		g.OfferBatch(b)
		since(t, &groupT)
		t = time.Now()
		for _, m := range members {
			m.OfferBatch(b)
		}
		since(t, &memT)
		ticks += len(b)
	})
	l.set("group.input_ns_per_tick", float64((groupT-memT).Nanoseconds())/float64(ticks))
	const snaps = 200
	var snapT, jsonT time.Duration
	for i := 0; i < snaps; i++ {
		t := time.Now()
		cmp := g.Snapshot()
		since(t, &snapT)
		t = time.Now()
		if _, err := json.Marshal(cmp); err != nil {
			return err
		}
		since(t, &jsonT)
	}
	l.set("group.snapshot_us", float64(snapT.Nanoseconds())/snaps/1e3)
	l.set("json.comparison_us", float64(jsonT.Nanoseconds())/snaps/1e3)
	return nil
}

// probePersist times MarshalState and RestoreEngine per technique, and
// hub detach and install, on the given engines.
func probePersist(l *ladder, engines []*sampling.Engine) error {
	type acc struct {
		marshal, restore time.Duration
		bytes, n         int
	}
	per := map[string]*acc{}
	h := hub.New()
	var detachT, restoreT time.Duration
	for i, eng := range engines {
		t := time.Now()
		blob, err := eng.MarshalState()
		if err != nil {
			return err
		}
		marshal := time.Since(t)
		t = time.Now()
		if _, err := sampling.RestoreEngine(blob); err != nil {
			return err
		}
		name := eng.Spec().Technique
		a := per[name]
		if a == nil {
			a = &acc{}
			per[name] = a
		}
		a.restore += time.Since(t)
		a.marshal += marshal
		a.bytes += len(blob)
		a.n++

		id := fmt.Sprintf("p%04d", i)
		if err := h.RestoreStream(id, blob); err != nil {
			return err
		}
		t = time.Now()
		if blob, err = h.Detach(id); err != nil {
			return err
		}
		since(t, &detachT)
		t = time.Now()
		if err := h.RestoreStream(id, blob); err != nil {
			return err
		}
		since(t, &restoreT)
	}
	for _, t := range techniques {
		a := per[t.name]
		if a == nil {
			return fmt.Errorf("no %s engine to persist", t.name)
		}
		l.set("persist."+t.name+"_marshal_us", float64(a.marshal.Nanoseconds())/float64(a.n)/1e3)
		l.set("persist."+t.name+"_restore_us", float64(a.restore.Nanoseconds())/float64(a.n)/1e3)
		l.set("persist."+t.name+"_state_bytes", float64(a.bytes)/float64(a.n))
	}
	l.set("hub.detach_us", float64(detachT.Nanoseconds())/float64(len(engines))/1e3)
	l.set("hub.restore_stream_us", float64(restoreT.Nanoseconds())/float64(len(engines))/1e3)
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/sampling"
	"repro/sampling/estimate"
	"repro/sampling/wire"
)

// groups-estimator: 16 five-member comparison groups with the aggvar
// estimator, the paper's side-by-side comparison as a live service.
// One connection posts 8192-tick binary frames round-robin across the
// groups in a closed loop; the other reads GET /v1/groups/{id} open
// loop at 200/s, each request timed from when it was due. The group
// input side and BSS carry most of the cost, and snapshots contend with
// ingest on the group lock.
const (
	groupCount    = 16
	groupFrame    = 8192
	groupWarmup   = 16 // batches per group before the timed window
	snapshotEvery = 5 * time.Millisecond
)

type groupsEstimator struct {
	tr     *traffic
	groups []*stream
	blobs  [][]byte
	next   int // round-robin position of the ingest loop
}

func newGroupsEstimator(tr *traffic) workload {
	return &groupsEstimator{
		tr: tr,
		groups: tr.streams(groupCount,
			func(i int) string { return fmt.Sprintf("g%02d", i) },
			func(int) int { return -1 },
			func(_ int, draw func() uint64) []string {
				specs := make([]string, len(techniques))
				for t, tech := range techniques {
					specs[t] = specFor(tech, draw())
				}
				return specs
			}),
	}
}

func (w *groupsEstimator) setup(cs [2]*conn) error {
	err := onBoth(cs, func(c *conn, half int) error {
		for i := half; i < len(w.groups); i += 2 {
			g := w.groups[i]
			body, err := json.Marshal(map[string]any{"specs": g.specs, "estimator": estimate.AggVar})
			if err != nil {
				return err
			}
			if _, err := c.expect(http.StatusCreated, http.MethodPut, "/v1/groups/"+g.id, "application/json", body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var buf []byte
	for i := 0; i < groupWarmup*len(w.groups); i++ {
		if buf, err = w.post(cs[0], buf); err != nil {
			return err
		}
	}
	for _, g := range w.groups {
		if _, err := w.snapshot(cs[1], g); err != nil {
			return err
		}
	}
	return nil
}

// encode appends the next group's next batch as one frame and returns
// the group it is for.
func (w *groupsEstimator) encode(buf []byte) ([]byte, *stream) {
	g := w.groups[w.next%len(w.groups)]
	w.next++
	buf, _ = wire.AppendFrame(buf, "", w.tr.next(g, groupFrame))
	return buf, g
}

// post encodes and sends the next batch.
func (w *groupsEstimator) post(c *conn, buf []byte) ([]byte, error) {
	buf, g := w.encode(buf[:0])
	return buf, w.send(c, buf, g)
}

func (w *groupsEstimator) send(c *conn, body []byte, g *stream) error {
	resp, err := c.expect(http.StatusOK, http.MethodPost, "/v1/groups/"+g.id+"/ticks", wire.ContentType, body)
	if err != nil {
		return err
	}
	var ack struct{ Accepted int }
	if err := json.Unmarshal(resp, &ack); err != nil {
		return fmt.Errorf("ingest response: %w", err)
	}
	if ack.Accepted != groupFrame {
		return fmt.Errorf("group %s acknowledged %d ticks of %d", g.id, ack.Accepted, groupFrame)
	}
	return nil
}

// snapshot reads one live comparison and checks its shape: five
// members, all at the group's input count, on a batch boundary.
func (w *groupsEstimator) snapshot(c *conn, g *stream) (int, error) {
	resp, err := c.expect(http.StatusOK, http.MethodGet, "/v1/groups/"+g.id, "", nil)
	if err != nil {
		return 0, err
	}
	var cmp sampling.Comparison
	if err := json.Unmarshal(resp, &cmp); err != nil {
		return 0, fmt.Errorf("group %s snapshot: %w", g.id, err)
	}
	if len(cmp.Members) != len(techniques) || cmp.Seen%groupFrame != 0 {
		return 0, fmt.Errorf("group %s snapshot: %d members at %d ticks", g.id, len(cmp.Members), cmp.Seen)
	}
	for _, m := range cmp.Members {
		if m.Summary.Seen != cmp.Seen {
			return 0, fmt.Errorf("group %s snapshot: member at %d ticks, group at %d", g.id, m.Summary.Seen, cmp.Seen)
		}
	}
	return cmp.Seen, nil
}

func (w *groupsEstimator) measure(cs [2]*conn, d time.Duration) (*window, error) {
	start := time.Now()
	deadline := start.Add(d)
	var parts [2]*window
	err := onBoth(cs, func(c *conn, half int) error {
		p := &window{}
		parts[half] = p
		if half == 0 {
			w.ingest(c, p, deadline)
		} else {
			w.read(c, p, start, deadline)
		}
		return nil
	})
	win := &window{}
	for _, p := range parts {
		win.merge(p)
	}
	win.elapsed = win.end.Sub(start)
	return win, err
}

// ingest is the closed-loop writer.
func (w *groupsEstimator) ingest(c *conn, p *window, deadline time.Time) {
	var buf []byte
	for time.Now().Before(deadline) {
		t0 := time.Now()
		var g *stream
		buf, g = w.encode(buf[:0])
		t1 := time.Now()
		p.encode += t1.Sub(t0)
		p.encTicks += groupFrame
		err := w.send(c, buf, g)
		done := time.Now()
		p.attempted++
		if err != nil {
			fmt.Fprintln(os.Stderr, "groups-estimator:", err)
			p.failed++
			continue
		}
		p.ops++
		p.ticks += groupFrame
		p.ingest = append(p.ingest, ms(done.Sub(t1)))
		p.end = done
	}
}

// read is the open-loop reader: request j is due at start + j*5ms and
// its latency runs from then, so a stall also charges the requests
// queued behind it.
func (w *groupsEstimator) read(c *conn, p *window, start, deadline time.Time) {
	seen := make([]int, len(w.groups))
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * snapshotEvery)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		p.late = append(p.late, ms(time.Since(due)))
		g := j % len(w.groups)
		n, err := w.snapshot(c, w.groups[g])
		p.attempted++
		if err == nil && n < seen[g] {
			err = fmt.Errorf("group %s went back from %d to %d ticks", w.groups[g].id, seen[g], n)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "groups-estimator reader:", err)
			p.failed++
			continue
		}
		seen[g] = n
		p.snapshots = append(p.snapshots, ms(time.Since(due)))
	}
}

func (w *groupsEstimator) collect(cs [2]*conn) error {
	w.blobs = make([][]byte, len(w.groups))
	return detachAll(cs, len(w.groups), func(i int) string { return "/v1/groups/" + w.groups[i].id + "/state" }, w.blobs)
}

// oracleGroup builds the in-process twin of a group.
func oracleGroup(g *stream) (*sampling.Group, error) {
	specs, err := parseSpecs(g.specs)
	if err != nil {
		return nil, err
	}
	return sampling.NewGroup(specs, sampling.WithEstimator(estimate.AggVar))
}

func (w *groupsEstimator) check(skew int) (int, int, error) {
	mismatched, first := checkAll(len(w.groups), func(i int) error {
		g := w.groups[i]
		want, err := oracleGroup(g)
		if err != nil {
			return err
		}
		w.tr.replay(g, 0, groupFrame, func(b []float64) { want.OfferBatch(b) })
		got, err := sampling.RestoreGroup(w.blobs[i])
		if err != nil {
			return fmt.Errorf("%s: restoring detached state: %w", g.id, err)
		}
		if err := compareGroups(got, want, skewFor(i, skew)); err != nil {
			return fmt.Errorf("%s: %w", g.id, err)
		}
		return nil
	})
	if first != nil {
		fmt.Fprintln(os.Stderr, "groups-estimator oracle:", first)
	}
	return len(w.groups), mismatched, nil
}

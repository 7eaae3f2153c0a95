package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/sampling"
	"repro/sampling/hub"
)

// The rebalance simulation: seeded fault schedules drive Probe and
// Rebalance over in-memory nodes backed by real hubs, with a router's
// tick traffic routed by the router's ring between and during rounds,
// and check placement, counter conservation and error reporting after
// every round.

// Typed failures of the simulated network and router. Every transport
// call either fails with one of these (or the round's context error)
// or takes effect.
var (
	errDown     = errors.New("sim: node down")
	errDropped  = errors.New("sim: request dropped before it took effect")
	errLost     = errors.New("sim: response lost after the effect was applied")
	errNoOwners = errors.New("sim: no healthy backends")
)

// simNode is one serving node: a real hub and a down flag that only
// changes between rounds. A down node keeps its hub, as a daemon
// restarting from its checkpoint would.
type simNode struct {
	hub  *hub.Hub
	down bool
}

// simID is one id of the schedule with its technique spec, or its
// group's member specs.
type simID struct {
	coll, id string
	specs    []sampling.Spec
}

func (x simID) key() string { return x.coll + "/" + x.id }

// coverage counts what the schedules exercised, so a change that made
// the faults stop firing fails the test instead of passing vacuously.
type coverage struct {
	transfers, faultFree, restarts, cuts, churn   int
	listFailures, bothPutsFailed, midMoveRefusals int
	settledAfterCut, lost, duplicated             int
}

// sim is one schedule. It is also the Transport the rebalance runs
// over: every call consults step, the seeded fault injector.
type sim struct {
	t       *testing.T
	name    string
	rng     *rand.Rand
	names   []string
	nodes   map[string]*simNode
	control *hub.Hub // every id, fed exactly the batches a node accepted
	ids     []simID
	ring    *Ring // the router's current ring

	// Per-round fault state.
	rate    float64            // chance that a call faults
	budget  int                // calls left before the round is cut; negative: never
	cancel  context.CancelFunc // cuts the round, as a router shutdown would
	faulted bool               // some call of this round faulted
	cut     bool               // the round was cut
	moveHit map[string]bool    // a Detach or Put of the id faulted this round

	reported map[string]bool // a Handoff.Err named the id since it was last whole
	tainted  map[string]bool // the id was once missing or held twice
	cov      *coverage
}

var simClock = func() time.Time { return time.Unix(1_000_000, 0) }

var (
	simStreamSpecs = []string{
		"systematic:interval=5", "stratified:interval=4,seed={seed}", "bernoulli:rate=0.2,seed={seed}",
		"simple:n=8,seed={seed}", "bss:interval=5,L=3,eps=1.0",
	}
	simGroupSpecs = []string{"systematic:interval=3", "bernoulli:rate=0.3,seed={seed}", "simple:n=6,seed={seed}"}
)

// simSpec fills a spec's seed placeholder, if it has one.
func simSpec(format string, seed int) sampling.Spec {
	return sampling.MustParse(strings.ReplaceAll(format, "{seed}", strconv.Itoa(seed)))
}

// newSim builds a schedule over 2–4 nodes with streams and groups each
// created on a seeded node, placement ignored: the misplaced cluster a
// router restarted mid-rebalance inherits.
func newSim(t *testing.T, seed uint64, cov *coverage) *sim {
	s := &sim{
		t:        t,
		name:     fmt.Sprintf("schedule %d", seed),
		rng:      rand.New(rand.NewPCG(seed, 0x5eed)),
		nodes:    map[string]*simNode{},
		control:  hub.New(hub.WithClock(simClock)),
		reported: map[string]bool{},
		tainted:  map[string]bool{},
		cov:      cov,
	}
	for i := range 2 + s.rng.IntN(3) {
		name := fmt.Sprintf("n%d", i)
		s.names = append(s.names, name)
		s.nodes[name] = &simNode{hub: hub.New(hub.WithClock(simClock))}
	}
	for i := range 6 {
		s.ids = append(s.ids, simID{"streams", fmt.Sprintf("s%d", i),
			[]sampling.Spec{simSpec(simStreamSpecs[i%len(simStreamSpecs)], i+1)}})
	}
	for i := range 3 {
		var specs []sampling.Spec
		for j, f := range simGroupSpecs {
			specs = append(specs, simSpec(f, 10*i+j+1))
		}
		s.ids = append(s.ids, simID{"groups", fmt.Sprintf("g%d", i), specs})
	}
	for _, x := range s.ids {
		for _, h := range []*hub.Hub{s.control, s.nodes[s.names[s.rng.IntN(len(s.names))]].hub} {
			var err error
			if x.coll == "streams" {
				err = h.Create(x.id, x.specs[0])
			} else {
				err = h.CreateGroup(x.id, x.specs)
			}
			if err != nil {
				t.Fatalf("%s: creating %s: %v", s.name, x.key(), err)
			}
		}
	}
	s.ring = NewRing(s.names) // a router boots optimistic
	return s
}

func (s *sim) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s: "+format, append([]any{s.name}, args...)...)
}

// step is consulted once per transport call. It fails the call before
// its effect (a cut round, a down node, a dropped request), or reports
// lose: the effect lands but its response is lost.
func (s *sim) step(ctx context.Context, node string) (lose bool, err error) {
	if s.budget == 0 {
		s.cut = true
		s.cancel()
	}
	s.budget--
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if s.nodes[node].down {
		return false, errDown
	}
	if s.rng.Float64() >= s.rate {
		return false, nil
	}
	s.faulted = true
	if s.rng.IntN(2) == 0 {
		return false, errDropped
	}
	return true, nil
}

func (s *sim) Healthy(ctx context.Context, node string) bool {
	lose, err := s.step(ctx, node)
	return !lose && err == nil
}

func (s *sim) List(ctx context.Context, node, coll string) ([]string, error) {
	switch lose, err := s.step(ctx, node); {
	case err != nil:
		return nil, err
	case lose:
		return nil, errLost
	}
	if coll == "streams" {
		return s.nodes[node].hub.List(), nil
	}
	return s.nodes[node].hub.ListGroups(), nil
}

// hit records that a move's call on x faulted: its node was down, or
// the request or its response was lost.
func (s *sim) hit(x simID, lose bool, err error) {
	if lose || errors.Is(err, errDown) || errors.Is(err, errDropped) {
		s.moveHit[x.key()] = true
	}
}

func (s *sim) Detach(ctx context.Context, node, coll, id string) ([]byte, error) {
	lose, err := s.step(ctx, node)
	s.hit(simID{coll: coll, id: id}, lose, err)
	if err != nil {
		return nil, err
	}
	h := s.nodes[node].hub
	var blob []byte
	if coll == "streams" {
		blob, err = h.AppendDetach(nil, id)
	} else {
		blob, err = h.AppendDetachGroup(nil, id)
	}
	if err != nil {
		return nil, err
	}
	if lose {
		return nil, errLost
	}
	return blob, nil
}

// Put installs a blob. Before the install attempt on the id's owner it
// offers the id a batch routed by the router's ring, as live traffic
// would between the Detach and the Put of a move.
func (s *sim) Put(ctx context.Context, node, coll, id string, state []byte) error {
	if x := (simID{coll: coll, id: id}); node == s.ring.Lookup(id) && !s.tainted[x.key()] {
		if err := s.offer(x, node); !errors.Is(err, hub.ErrStreamNotFound) {
			s.fatalf("a batch for %s offered to its owner %s mid-move: %v, want hub.ErrStreamNotFound", x.key(), node, err)
		}
		s.cov.midMoveRefusals++
	}
	lose, err := s.step(ctx, node)
	s.hit(simID{coll: coll, id: id}, lose, err)
	if err != nil {
		return err
	}
	if s.cut {
		s.cov.settledAfterCut++
	}
	h := s.nodes[node].hub
	if coll == "streams" {
		err = h.RestoreStream(id, state)
	} else {
		err = h.RestoreGroupState(id, state)
	}
	if err == nil && lose {
		err = errLost
	}
	return err
}

// offer sends one seeded batch for x to node, as the router forwards a
// tick POST, and feeds the control exactly the batches a node accepts.
func (s *sim) offer(x simID, node string) error {
	values := make([]float64, 8+s.rng.IntN(56))
	for i := range values {
		values[i] = s.rng.ExpFloat64()
	}
	if node == "" {
		return errNoOwners
	}
	if s.nodes[node].down {
		return errDown
	}
	offer := (*hub.Hub).OfferBatch
	if x.coll == "groups" {
		offer = (*hub.Hub).OfferGroupBatch
	}
	if _, err := offer(s.nodes[node].hub, x.id, values); err != nil {
		return err
	}
	if _, err := offer(s.control, x.id, values); err != nil {
		s.fatalf("control refused %s: %v", x.key(), err)
	}
	return nil
}

// round runs one probe round: membership churn, a batch per id routed
// by the router's ring, then Probe and Rebalance under the round's
// faults, then the invariants.
func (s *sim) round(r int) {
	if s.rng.IntN(4) == 0 {
		n := s.nodes[s.names[s.rng.IntN(len(s.names))]]
		n.down = !n.down
		s.cov.churn++
	}
	for _, x := range s.ids {
		err := s.offer(x, s.ring.Lookup(x.id))
		if err != nil && !errors.Is(err, hub.ErrStreamNotFound) && !errors.Is(err, errDown) && !errors.Is(err, errNoOwners) {
			s.fatalf("round %d: batch for %s refused with an untyped error: %v", r, x.key(), err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.cancel, s.faulted, s.cut, s.rate, s.budget = cancel, false, false, 0, -1
	s.moveHit = map[string]bool{}
	if s.rng.IntN(2) == 0 {
		s.rate = 0.15
	}
	restart := s.rng.IntN(8) == 0
	if restart {
		s.budget = s.rng.IntN(16) // the router stops somewhere in this round
	}
	ring := Probe(ctx, s, s.names)
	s.ring = ring
	handoffs := Rebalance(ctx, s, ring)
	faultFree := !s.faulted && !s.cut
	if s.cut {
		s.cov.cuts++
	}
	if faultFree {
		s.cov.faultFree++
	}
	if restart {
		s.cov.restarts++
		s.ring = NewRing(s.names)
	}
	s.check(r, ring, handoffs, faultFree)
}

// check asserts the invariants after a round: an id missing or held
// twice had a Handoff.Err reported for it since it was last whole; an
// id goes missing only when a call of its move faulted — a round cut
// mid-move still lands the state on a node; a fault-free round leaves
// every whole id on a live node on its owner; and a whole id that was
// never broken carries exactly the counters of the control, which saw
// every accepted batch once.
func (s *sim) check(r int, ring *Ring, handoffs []Handoff, faultFree bool) {
	for _, h := range handoffs {
		switch {
		case h.ID == "":
			if h.Err == nil || h.To != "" {
				s.fatalf("round %d: listing report %+v carries no error or a target", r, h)
			}
			s.cov.listFailures++
		case h.Err != nil:
			s.reported[h.Collection+"/"+h.ID] = true
			if u, ok := h.Err.(interface{ Unwrap() []error }); ok && len(u.Unwrap()) == 2 {
				s.cov.bothPutsFailed++
			}
		default:
			s.cov.transfers++
		}
	}
	holders := map[string][]string{}
	for _, name := range s.names {
		h := s.nodes[name].hub
		for _, id := range h.List() {
			holders["streams/"+id] = append(holders["streams/"+id], name)
		}
		for _, id := range h.ListGroups() {
			holders["groups/"+id] = append(holders["groups/"+id], name)
		}
	}
	for _, x := range s.ids {
		at := holders[x.key()]
		if len(at) != 1 {
			if !s.reported[x.key()] {
				s.fatalf("round %d: %s is held by %v, and no handoff error was reported for it", r, x.key(), at)
			}
			if !s.tainted[x.key()] {
				if len(at) == 0 && !s.moveHit[x.key()] {
					s.fatalf("round %d: %s was lost, though its source and target were up and no call of its move faulted (cut round: %v)",
						r, x.key(), s.cut)
				}
				if len(at) == 0 {
					s.cov.lost++
				} else {
					s.cov.duplicated++
				}
			}
			s.tainted[x.key()] = true
			continue
		}
		s.reported[x.key()] = false
		node := s.nodes[at[0]]
		if faultFree && !node.down && ring.Lookup(x.id) != at[0] {
			s.fatalf("round %d: fault-free round left %s on %s, owner %s", r, x.key(), at[0], ring.Lookup(x.id))
		}
		if !s.tainted[x.key()] {
			s.conserved(r, x, node.hub)
		}
	}
}

// conserved fails unless the copy of x on h has the control's counters.
func (s *sim) conserved(r int, x simID, h *hub.Hub) {
	if x.coll == "streams" {
		got, err := h.Snapshot(x.id)
		if err != nil {
			s.fatalf("round %d: %v", r, err)
		}
		want, _ := s.control.Snapshot(x.id)
		if got.Seen != want.Seen || got.Kept != want.Kept {
			s.fatalf("round %d: %s seen/kept %d/%d, want %d/%d", r, x.key(), got.Seen, got.Kept, want.Seen, want.Kept)
		}
		return
	}
	got, err := h.GroupSnapshot(x.id)
	if err != nil {
		s.fatalf("round %d: %v", r, err)
	}
	want, _ := s.control.GroupSnapshot(x.id)
	if got.Seen != want.Seen {
		s.fatalf("round %d: %s seen %d, want %d", r, x.key(), got.Seen, want.Seen)
	}
	for i := range want.Members {
		if g, w := got.Members[i].Summary, want.Members[i].Summary; g.Kept != w.Kept {
			s.fatalf("round %d: %s member %d kept %d, want %d", r, x.key(), i, g.Kept, w.Kept)
		}
	}
}

// TestRebalanceSimulation runs seeded fault schedules — dropped
// requests, lost responses, nodes going down and coming back, install
// and rollback both failing, a router stopped mid-round and restarted
// on an optimistic all-nodes ring — and checks the invariants after
// every round. A failure names its schedule, which replays exactly.
func TestRebalanceSimulation(t *testing.T) {
	schedules := 1000
	if testing.Short() {
		schedules = 300
	}
	var cov coverage
	for seed := range uint64(schedules) {
		s := newSim(t, seed, &cov)
		for r := range 8 {
			s.round(r)
		}
	}
	t.Logf("%d schedules: %+v", schedules, cov)
	for name, n := range map[string]int{
		"transfers": cov.transfers, "fault-free rounds": cov.faultFree, "restarts": cov.restarts,
		"cut rounds": cov.cuts, "node churn": cov.churn, "listing failures": cov.listFailures,
		"install and rollback both failing": cov.bothPutsFailed, "mid-move refusals": cov.midMoveRefusals,
		"moves settled after a cut": cov.settledAfterCut, "lost ids": cov.lost, "duplicated ids": cov.duplicated,
	} {
		if n == 0 {
			t.Errorf("no schedule exercised %s", name)
		}
	}
}

// cutOnDetach is a transport over in-memory nodes (node → id → state)
// whose Detach cancels the round's context once it has taken the state,
// as a shutdown landing between a move's DELETE and its PUT would. Put
// refuses a done context, as an HTTP request on one does.
type cutOnDetach struct {
	nodes  map[string]map[string][]byte
	cancel context.CancelFunc
}

func (c *cutOnDetach) Healthy(context.Context, string) bool { return true }

func (c *cutOnDetach) List(_ context.Context, node, coll string) ([]string, error) {
	var ids []string
	if coll == "streams" {
		for id := range c.nodes[node] {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

func (c *cutOnDetach) Detach(_ context.Context, node, _, id string) ([]byte, error) {
	state, ok := c.nodes[node][id]
	if !ok {
		return nil, hub.ErrStreamNotFound
	}
	delete(c.nodes[node], id)
	c.cancel()
	return state, nil
}

func (c *cutOnDetach) Put(ctx context.Context, node, _, id string, state []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.nodes[node][id] = state
	return nil
}

// TestTransferSettlesAfterCancel: a move whose context is cancelled
// after its source detached the state still installs it on the target,
// and a rebalance cut that way starts no further move.
func TestTransferSettlesAfterCancel(t *testing.T) {
	ring := NewRing([]string{"a", "b"})
	var owned []string // two ids b owns
	for i := 0; len(owned) < 2; i++ {
		if id := fmt.Sprintf("s%d", i); ring.Lookup(id) == "b" {
			owned = append(owned, id)
		}
	}
	at := func(c *cutOnDetach, id string) []string {
		var on []string
		for _, n := range []string{"a", "b"} {
			if _, ok := c.nodes[n][id]; ok {
				on = append(on, n)
			}
		}
		return on
	}

	ctx, cancel := context.WithCancel(context.Background())
	c := &cutOnDetach{nodes: map[string]map[string][]byte{"a": {"x": []byte("state")}, "b": {}}, cancel: cancel}
	if err := Transfer(ctx, c, "a", "b", "streams", "x"); err != nil {
		t.Fatalf("transfer cut after its detach: %v", err)
	}
	if on := at(c, "x"); len(on) != 1 || on[0] != "b" || string(c.nodes["b"]["x"]) != "state" {
		t.Fatalf("transfer cut after its detach left the stream on %v, want [b]", on)
	}

	// Two ids owned by b, both held by a: the first move cuts the round.
	ctx, cancel = context.WithCancel(context.Background())
	c = &cutOnDetach{nodes: map[string]map[string][]byte{"a": {}, "b": {}}, cancel: cancel}
	for _, id := range owned {
		c.nodes["a"][id] = []byte(id)
	}
	handoffs := Rebalance(ctx, c, ring)
	if len(handoffs) != 1 || handoffs[0].Err != nil || handoffs[0].To != "b" {
		t.Fatalf("cut rebalance reported %+v, want one successful move to b", handoffs)
	}
	moved, left := handoffs[0].ID, owned[0]
	if left == moved {
		left = owned[1]
	}
	if on := at(c, moved); len(on) != 1 || on[0] != "b" {
		t.Errorf("the move in flight left %s on %v, want [b]", moved, on)
	}
	if on := at(c, left); len(on) != 1 || on[0] != "a" {
		t.Errorf("the cut round touched %s: on %v, want [a]", left, on)
	}
}

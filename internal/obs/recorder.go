package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one flight-recorder entry: a request served (Kind
// "request") or answered with an error status (Kind "error"). Fields
// beyond At and Kind are optional and omitted from the JSON form when
// zero.
type Event struct {
	At     time.Time     `json:"at"`
	Kind   string        `json:"kind"`
	Route  string        `json:"route,omitempty"`
	ID     string        `json:"id,omitempty"` // stream or group id
	Status int           `json:"status,omitempty"`
	Dur    time.Duration `json:"duration_ns,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// Recorder is a fixed-size ring of recent events in the style of
// x/net/trace: the last N things the serving path did, kept cheaply
// enough to stay on under load. Record claims a slot with one atomic
// add and copies the event under that slot's own mutex — writers
// contend only when the ring wraps onto the same slot, never on a
// global lock.
type Recorder struct {
	slots []eventSlot
	mask  uint64
	next  atomic.Uint64 // events ever recorded; slot index is (n-1)&mask
}

type eventSlot struct {
	mu  sync.Mutex
	seq uint64 // 1-based recording sequence; 0 means never written
	ev  Event
}

// NewRecorder builds a recorder holding the most recent size events
// (rounded up to a power of two, minimum 16).
func NewRecorder(size int) *Recorder {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{slots: make([]eventSlot, n), mask: uint64(n - 1)}
}

// Record appends one event, overwriting the oldest once the ring is
// full.
func (r *Recorder) Record(ev Event) {
	seq := r.next.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	s.mu.Lock()
	s.seq = seq
	s.ev = ev
	s.mu.Unlock()
}

// Total returns how many events have ever been recorded (including
// those the ring has since overwritten).
func (r *Recorder) Total() uint64 { return r.next.Load() }

// Events returns a snapshot of the ring, newest first. Concurrent
// Records may land mid-snapshot; each slot is read consistently under
// its own lock.
func (r *Recorder) Events() []Event {
	type numbered struct {
		seq uint64
		ev  Event
	}
	snap := make([]numbered, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 {
			snap = append(snap, numbered{s.seq, s.ev})
		}
		s.mu.Unlock()
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].seq > snap[j].seq })
	out := make([]Event, len(snap))
	for i, n := range snap {
		out[i] = n.ev
	}
	return out
}

// ServeHTTP renders the ring as JSON, newest event first — the
// GET /debug/events document:
//
//	{"total": 1234, "capacity": 256, "events": [{"at": ..., "kind": "request", ...}, ...]}
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Total    uint64  `json:"total"`
		Capacity int     `json:"capacity"`
		Events   []Event `json:"events"`
	}{Total: r.Total(), Capacity: len(r.slots), Events: r.Events()})
}

// Package fieldlive holds one field per case of the read/set
// classification TestFieldsLive applies to the module. Each field's
// expectation names what the package's own code does with it; a field
// with no expectation is neither read nor set, or is embedded and so
// not tracked.
package fieldlive

type locker struct{ held bool } // want `^held: set$`

func (l *locker) lock() { l.held = true }

type half struct {
	sum float64 // want `^sum: set$`
}

type ledger struct {
	half    half           // want `^half: set$`
	classes map[string]int // want `^classes: set$`
	total   float64        // want `^total: read set$`
	ticks   int            // want `^ticks: read set$`
	addr    int            // want `^addr: read set$`
	mu      locker         // want `^mu: read set$`
	name    string         // want `^name: read set$`
	unused  int
}

func record(l *ledger, c string, v float64) *int {
	l.half.sum = v // a nested selector sets both fields
	l.classes[c] = 1
	l.total += v
	l.ticks++
	l.mu.lock()
	_ = l.name
	return &l.addr
}

func newLedger() *ledger { return &ledger{name: "l", classes: map[string]int{}} }

type pair struct {
	lo, hi int // want `^lo: set$` `^hi: set$`
}

var unit = pair{0, 1}

// Wire reaches its fields by reflection through encoding/json.
type Wire struct {
	V    float64 `json:"v"` // want `^V: read set$`
	Skip float64 `json:"-"`
}

type box[T any] struct {
	v T // want `^v: read set$`
}

func (b *box[T]) get() T { return b.v }

var boxed = box[int]{v: 1}

type base struct {
	id int // want `^id: read$`
}

type derived struct {
	base
	extra int // want `^extra: set$`
}

func useDerived() int {
	d := derived{extra: 1}
	d.base = base{}
	return d.id
}

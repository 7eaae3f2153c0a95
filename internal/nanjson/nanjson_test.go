package nanjson

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

type inner struct {
	X float64 `json:"x"`
	N int     `json:"n"`
}

type doc struct {
	F     float64  `json:"f"`
	S     string   `json:"s,omitempty"`
	B     bool     `json:"b"`
	I     int64    `json:"i"`
	Err   error    `json:"error,omitempty"`
	P     *inner   `json:"p,omitempty"`
	In    inner    `json:"in"`
	L     []inner  `json:"l"`
	Skip  float64  `json:"-"`
	Plain float64  // untagged: neither written nor read
	Raw   []string `json:"raw,omitempty"`
}

func (d doc) MarshalJSON() ([]byte, error)     { return Marshal(&d) }
func (d *doc) UnmarshalJSON(data []byte) error { return Unmarshal(data, d, false) }

func (i inner) MarshalJSON() ([]byte, error)     { return Marshal(&i) }
func (i *inner) UnmarshalJSON(data []byte) error { return Unmarshal(data, i, true) }

func TestMarshal(t *testing.T) {
	cases := []struct {
		in   doc
		want string
	}{
		{doc{F: math.NaN(), In: inner{X: math.Inf(1)}},
			`{"f":null,"b":false,"i":0,"in":{"x":null,"n":0},"l":null}`},
		{doc{F: math.Copysign(0, -1), S: "<a&b>", B: true, I: -7, Err: errors.New(`bad "x"`),
			P: &inner{X: 1e21, N: 2}, L: []inner{{X: 1e-7}}, Skip: 1, Plain: 2, Raw: []string{"é"}},
			`{"f":-0,"s":"\u003ca\u0026b\u003e","b":true,"i":-7,"error":"bad \"x\"","p":{"x":1e+21,"n":2},` +
				`"in":{"x":0,"n":0},"l":[{"x":1e-7,"n":0}],"raw":["é"]}`},
		{doc{F: 1, Raw: []string{"<", ">", "&", "\u2028", `"`, `\`, "\x01"}},
			`{"f":1,"b":false,"i":0,"in":{"x":0,"n":0},"l":null,` +
				`"raw":["\u003c","\u003e","\u0026","\u2028","\"","\\","\u0001"]}`},
	}
	for _, c := range cases {
		got, err := Marshal(&c.in)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("got  %s\nwant %s", got, c.want)
		}
	}
}

func TestUnmarshal(t *testing.T) {
	var d doc
	in := `{"s":"a\"é\n","b":true,"i":-3,"error":"boom","p":{"x":null,"n":4},"l":[{"n":1},{"x":2.5}],` +
		`"unknown":{"deep":[1,{"x":"y\"}"}]},"in":{"n":9}}`
	if err := json.Unmarshal([]byte(in), &d); err != nil {
		t.Fatal(err)
	}
	switch {
	case !math.IsNaN(d.F), d.S != "a\"é\n", !d.B, d.I != -3:
		t.Errorf("scalars: %+v", d)
	case d.Err == nil || d.Err.Error() != "boom":
		t.Errorf("error: %v", d.Err)
	case d.P == nil || !math.IsNaN(d.P.X) || d.P.N != 4:
		t.Errorf("pointer: %+v", d.P)
	case len(d.L) != 2 || !math.IsNaN(d.L[0].X) || d.L[0].N != 1 || d.L[1].X != 2.5:
		t.Errorf("slice: %+v", d.L)
	case !math.IsNaN(d.In.X) || d.In.N != 9:
		t.Errorf("nested value: %+v", d.In)
	}
	// An absent nested value keeps NaN in its floats.
	if err := json.Unmarshal([]byte(`{}`), &d); err != nil || !math.IsNaN(d.In.X) || d.P != nil || d.L != nil {
		t.Errorf("empty object: %+v, %v", d, err)
	}
}

func TestUnmarshalRefuses(t *testing.T) {
	for _, in := range []string{
		``, `[]`, `{"f":1`, `{"f":1,}`, `{"f" 1}`, `{"f":1}}`, `{"f":1} x`,
		`{"f":"1"}`, `{"f":0x1p3}`, `{"f":01}`, `{"f":-Inf}`, `{"f":NaN}`, `{"f":1e999}`,
		`{"i":1.5}`, `{"b":1}`, `{"s":5}`, `{"s":"a` + "\x01" + `"}`, `{"error":1}`,
		`{"unknown":[1,}`, `{"unknown":[1,]}`, `{"unknown":{"a"}}`, `{"unknown":tru}`,
		`{"l":[{"n":1}{"n":2}]}`, `{"in":{"n":1,"bad":2}}`,
	} {
		var d doc
		if err := Unmarshal([]byte(in), &d, false); err == nil {
			t.Errorf("%q read without error", in)
		}
	}
	var i inner
	if err := Unmarshal([]byte(`{"n":1,"N":2}`), &i, true); err == nil || !strings.Contains(err.Error(), `"N"`) {
		t.Errorf("strict read took a key that matches only by case: %v", err)
	}
	if err := Unmarshal([]byte(`{"\u006e":5}`), &i, true); err != nil || i.N != 5 {
		t.Errorf("escaped key: %+v, %v", i, err)
	}
}

// FuzzUnmarshal holds the walker to encoding/json's grammar: whatever
// Unmarshal accepts is valid JSON, and it never panics.
func FuzzUnmarshal(f *testing.F) {
	for _, s := range []string{
		`{"f":1.5,"s":"x","l":[{"x":null}],"p":{"n":2},"in":{}}`,
		`{"unknown":{"a":[1,2,{"b":"\"}"}]},"error":"e"}`,
		`null`, ` { "f" : -0 } `, `{"s":"é😀"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d doc
		if Unmarshal(data, &d, false) == nil && !json.Valid(data) {
			t.Fatalf("accepted invalid JSON %q", data)
		}
	})
}

// TestConcurrentUse builds a type's plan from several goroutines at
// once, as a daemon serving its first snapshots does.
func TestConcurrentUse(t *testing.T) {
	type fresh struct {
		A float64 `json:"a"`
		B []int   `json:"b"`
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				data, err := Marshal(&fresh{A: math.NaN(), B: []int{1}})
				var back fresh
				if err == nil {
					err = Unmarshal(data, &back, true)
				}
				if err != nil || !math.IsNaN(back.A) || len(back.B) != 1 {
					t.Errorf("%s: %+v, %v", data, back, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

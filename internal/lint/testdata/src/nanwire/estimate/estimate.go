// Package estimate is the fixture of the estimate package's shape: a
// Hurst estimate is NaN until it resolves, so its json-tagged floats
// must reach the wire through the null-for-NaN codec.
package estimate

import "repro/internal/nanjson"

// Estimate is the sanctioned shape: the tags on the public type plus a
// one-line MarshalJSON through internal/nanjson.
type Estimate struct {
	H      float64 `json:"h"`
	Levels int     `json:"levels"`
}

func (e Estimate) MarshalJSON() ([]byte, error) { return nanjson.Marshal(&e) }

// Reading tags its NaN-able float with no MarshalJSON: encoding/json
// would fail on an unresolved estimate.
type Reading struct { // want `Reading.*H.*internal/nanjson`
	H float64 `json:"h"`
}

// Point is an alias: the check holds the type it names, not the alias.
type Point = Estimate

//go:build go1.24

package core

import "math/rand/v2"

// appendPCG appends the generator's binary form to dst without an
// intermediate slice.
func appendPCG(dst []byte, p *rand.PCG) ([]byte, error) { return p.AppendBinary(dst) }

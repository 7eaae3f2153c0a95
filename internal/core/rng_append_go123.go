//go:build !go1.24

package core

import "math/rand/v2"

// appendPCG appends the generator's binary form to dst; before Go 1.24
// PCG has no AppendBinary, so this goes through MarshalBinary's copy.
func appendPCG(dst []byte, p *rand.PCG) ([]byte, error) {
	b, err := p.MarshalBinary()
	return append(dst, b...), err
}

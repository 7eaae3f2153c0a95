// Package analysis is a minimal, dependency-free mirror of the part of
// the golang.org/x/tools/go/analysis API the samplelint suite uses.
// This repo builds hermetically (no module proxy), so the real x/tools
// cannot be pulled in. The shapes here are a subset of that API: an
// Analyzer is a Name and a Run function, and a Pass carries
// Files/Pkg/TypesInfo and a Report hook. Each analyzer's invariant is
// documented on its variable, not in a Doc string.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check: a name for diagnostics and
// configuration, and a Run function applied to one type-checked
// package at a time.
type Analyzer struct {
	Name string
	Run  func(*Pass) (any, error)
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass presents one type-checked package to an analyzer. Files hold
// the package's syntax, Pkg and TypesInfo its resolved types; every
// identifier in Files is resolvable through TypesInfo, which is what
// lets the analyzers see through aliased imports and unrelated
// same-named methods.
type Pass struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Package restructure rewrites class files into predicted first-use
// method order (paper §4), lays out the interleaved virtual file that the
// stream writer ships and the transfer engines price (Plan, §5.2), and
// exposes the per-method layout facts the paper's tables look up.
package restructure

import (
	"cmp"
	"slices"

	"nonstrict/internal/classfile"
	"nonstrict/internal/reorder"
)

// Apply returns a copy of p in which each class's methods are sorted by
// the order's rank — the paper's class-file restructuring step. The copy
// shares Method structures and constant pools with p (they are not
// modified); only the per-class method sequences are new.
func Apply(p *classfile.Program, ix *classfile.Index, o *reorder.Order) *classfile.Program {
	out := &classfile.Program{Name: p.Name, MainClass: p.MainClass, Classes: make([]*classfile.Class, len(p.Classes))}
	classes := make([]classfile.Class, len(p.Classes))
	for i, c := range p.Classes {
		nc := &classes[i]
		*nc = *c // shallow copy; CP, fields, attrs shared read-only
		nc.Methods = slices.Clone(c.Methods)
		rank := func(m *classfile.Method) int {
			return o.Rank[ix.ID(classfile.Ref{Class: c.Name, Name: c.MethodName(m)})]
		}
		slices.SortStableFunc(nc.Methods, func(a, b *classfile.Method) int { return cmp.Compare(rank(a), rank(b)) })
		out.Classes[i] = nc
	}
	return out
}

// Layouts summarizes the serialized layout of every class in a program.
// All offsets are within each class's own file.
type Layouts struct {
	// FileSize is each class file's total wire size.
	FileSize map[string]int
	// GlobalEnd is the size of each class's global-data section.
	GlobalEnd map[string]int
	// Avail is the non-strict availability offset of each method: the
	// file offset just past its delimiter. A method may execute once
	// Avail bytes of its class file have arrived.
	Avail map[classfile.Ref]int
	// BodySize is each method's streamed body size (local data + code +
	// delimiter).
	BodySize map[classfile.Ref]int
}

// ComputeLayouts derives layout facts from p's current method order.
// Call it on the restructured program.
func ComputeLayouts(p *classfile.Program) *Layouts {
	l := &Layouts{
		FileSize:  make(map[string]int),
		GlobalEnd: make(map[string]int),
		Avail:     make(map[classfile.Ref]int),
		BodySize:  make(map[classfile.Ref]int),
	}
	for _, c := range p.Classes {
		cl := c.ComputeLayout()
		l.FileSize[c.Name] = cl.FileSize
		l.GlobalEnd[c.Name] = cl.GlobalEnd
		for i, m := range c.Methods {
			r := classfile.Ref{Class: c.Name, Name: c.MethodName(m)}
			l.Avail[r] = cl.Methods[i].DelimEnd
			l.BodySize[r] = m.BodyWireSize()
		}
	}
	return l
}

package restructure

import (
	"fmt"

	"nonstrict/internal/classfile"
	"nonstrict/internal/datapart"
	"nonstrict/internal/reorder"
)

// UnitKind says which part of a class file a Unit carries.
type UnitKind uint8

const (
	Global      UnitKind = iota // a class's global data; only without a partition
	NeededFirst                 // a class's needed-first global data (§7.3)
	Body                        // a method's body, with a partition after its GMD
	Unused                      // a class's unreferenced global data, last
)

// Unit is one unit of the interleaved virtual file (§5.2).
type Unit struct {
	Kind  UnitKind
	Class int // index into Program.Classes
	Body  int // a Body unit's index in its class's file order; else -1
	// Method is the method a Body unit delivers; zero otherwise.
	Method classfile.Ref
	// Without a partition, every unit is the range [Off, Off+Len) of its
	// class file; with one, units are not ranges and Off is -1.
	Off, Len int
}

// Plan lays out the interleaved virtual file of p, a program restructured
// for o (expressed in the MethodIDs of ix): each class's global data, or
// with part its needed-first section, right before its first method in
// o; each method's body, with part preceded by its GMD, in o; then with
// part each class's unused global data. part may be nil.
//
// Plan is the one definition of the file's layout: the stream writer
// cuts its units out of the class files and the transfer engines price
// them. It fails unless each class's file order is o's restriction to
// it, and with part unless each class's units sum to its file size.
func Plan(p *classfile.Program, ix *classfile.Index, o *reorder.Order, part *datapart.Partition) ([]Unit, error) {
	n := len(p.Classes) + len(o.Methods)
	if part != nil {
		n += len(p.Classes)
	}
	units := make([]Unit, 0, n)
	// Per class: the bytes planned so far (without a partition, the file
	// offset of its next body) and how many of its bodies.
	type cursor struct{ off, next int }
	cur := make([]cursor, len(p.Classes))
	for _, id := range o.Methods {
		r := ix.Ref(id)
		ci := ix.ClassIndex(r.Class)
		if ci < 0 || ci >= len(p.Classes) || p.Classes[ci].Name != r.Class {
			return nil, fmt.Errorf("restructure: order names unknown class %q", r.Class)
		}
		c, k := p.Classes[ci], &cur[ci]
		if k.next == 0 {
			g := Unit{Kind: Global, Class: ci, Body: -1, Len: c.GlobalSize()}
			if part != nil {
				g = Unit{Kind: NeededFirst, Class: ci, Body: -1, Off: -1, Len: part.NeededFirst[r.Class]}
			}
			units = append(units, g)
			k.off = g.Len
		}
		if k.next >= len(c.Methods) {
			return nil, fmt.Errorf("restructure: class %q has more ordered methods than bodies", r.Class)
		}
		m := c.Methods[k.next]
		if got := c.MethodName(m); got != r.Name {
			return nil, fmt.Errorf("restructure: class %q file order has %q where order expects %q (program not restructured?)",
				r.Class, got, r.Name)
		}
		u := Unit{Kind: Body, Class: ci, Body: k.next, Method: r, Off: k.off, Len: m.BodyWireSize()}
		if part != nil {
			u.Off, u.Len = -1, u.Len+part.GMD[r]
		}
		units = append(units, u)
		k.off += u.Len
		k.next++
	}
	if part == nil {
		return units, nil
	}
	for _, g := range units {
		if g.Kind != NeededFirst {
			continue
		}
		c := p.Classes[g.Class]
		u := Unit{Kind: Unused, Class: g.Class, Body: -1, Off: -1, Len: part.Unused[c.Name]}
		if got, want := cur[g.Class].off+u.Len, c.WireSize(); got != want {
			return nil, fmt.Errorf("restructure: class %s: partitioned stream is %d bytes, file is %d", c.Name, got, want)
		}
		units = append(units, u)
	}
	return units, nil
}

package classfile

import "fmt"

// MethodID is a dense program-wide method identifier, stable for a given
// Program as long as classes and methods are not added or removed.
// Reordering methods within a class does NOT change IDs: the index is
// keyed by Ref, so analyses done before restructuring remain valid after.
type MethodID int32

// NoMethod is the invalid MethodID.
const NoMethod MethodID = -1

// Index maps between Refs, MethodIDs, and the underlying structures. It
// is the program's one method index: the build and the client's linker
// both number methods through it, one class at a time.
type Index struct {
	prog    *Program
	ids     map[Ref]MethodID
	methods []*Method
	classOf []int32 // owning class per method, by position in prog.Classes
	classID map[string]int
}

// NewIndex starts an empty index over p with room for n methods. Add
// indexes p's classes one at a time.
func NewIndex(p *Program, n int) *Index {
	return &Index{
		prog:    p,
		ids:     make(map[Ref]MethodID, n),
		methods: make([]*Method, 0, n),
		classOf: make([]int32, 0, n),
		classID: make(map[string]int, len(p.Classes)),
	}
}

// Add indexes c as the program's next class and numbers its methods
// after every method already indexed. A program that already holds c in
// that place is indexed as it stands; one that is still arriving grows by
// c. Add fails, and changes nothing, on a class name or a method already
// indexed, or on a class that is not the program's next one.
func (ix *Index) Add(c *Class) error {
	ci := len(ix.classID)
	if _, dup := ix.classID[c.Name]; dup {
		return fmt.Errorf("classfile: duplicate class %s", c.Name)
	}
	if ci < len(ix.prog.Classes) && ix.prog.Classes[ci] != c {
		return fmt.Errorf("classfile: class %s is not class %d of program %q", c.Name, ci, ix.prog.Name)
	}
	for i, m := range c.Methods {
		r := Ref{Class: c.Name, Name: c.MethodName(m)}
		if _, dup := ix.ids[r]; dup {
			for _, m := range c.Methods[:i] {
				delete(ix.ids, Ref{Class: c.Name, Name: c.MethodName(m)})
			}
			return fmt.Errorf("classfile: duplicate method %v", r)
		}
		ix.ids[r] = MethodID(len(ix.methods) + i)
	}
	ix.classID[c.Name] = ci
	if ci == len(ix.prog.Classes) {
		ix.prog.Classes = append(ix.prog.Classes, c)
	}
	for _, m := range c.Methods {
		ix.methods = append(ix.methods, m)
		ix.classOf = append(ix.classOf, int32(ci))
	}
	return nil
}

// IndexMethods builds the method index. IDs are assigned in (class,
// method) declaration order at the time of the call; because lookups are
// by Ref, callers should build the index once, before any restructuring.
func (p *Program) IndexMethods() *Index {
	ix := NewIndex(p, p.NumMethods())
	for _, c := range p.Classes {
		if err := ix.Add(c); err != nil {
			panic(err)
		}
	}
	return ix
}

// Len returns the number of methods.
func (ix *Index) Len() int { return len(ix.methods) }

// ID returns the MethodID for r, or NoMethod.
func (ix *Index) ID(r Ref) MethodID {
	if id, ok := ix.ids[r]; ok {
		return id
	}
	return NoMethod
}

// Ref returns the Ref of id.
func (ix *Index) Ref(id MethodID) Ref {
	c := ix.Class(id)
	return Ref{Class: c.Name, Name: c.MethodName(ix.methods[id])}
}

// Method returns the method of id.
func (ix *Index) Method(id MethodID) *Method { return ix.methods[id] }

// Class returns the class owning id.
func (ix *Index) Class(id MethodID) *Class { return ix.prog.Classes[ix.classOf[id]] }

// ClassIndex returns the position of class name in Program.Classes, or -1.
func (ix *Index) ClassIndex(name string) int {
	if i, ok := ix.classID[name]; ok {
		return i
	}
	return -1
}

// Program returns the indexed program.
func (ix *Index) Program() *Program { return ix.prog }

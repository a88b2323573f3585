// Package classfile models the Java-like class files that non-strict
// execution restructures and streams.
//
// A Class mirrors the JVM ClassFile structure at the granularity the paper
// cares about: a constant pool with the eleven JVM constant kinds, fields,
// interfaces, attributes (together the "global data"), and a sequence of
// methods, each carrying bytecode plus a per-method local-data blob. The
// binary wire format (see wire.go) places all global data first, then each
// method's local data, code, and a trailing method delimiter, which is the
// unit of availability for non-strict execution: a method may begin
// executing once the byte containing its delimiter has arrived.
//
// All byte accounting used by the transfer schedules and by Tables 8 and 9
// of the paper derives from the real serialized sizes computed here.
package classfile

import (
	"fmt"
	"strings"
)

// ConstKind identifies a constant-pool entry kind. The values match the
// JVM tag numbers so serialized pools look familiar in hex dumps.
type ConstKind byte

const (
	KUtf8               ConstKind = 1
	KInteger            ConstKind = 3
	KFloat              ConstKind = 4
	KLong               ConstKind = 5
	KDouble             ConstKind = 6
	KClass              ConstKind = 7
	KString             ConstKind = 8
	KFieldRef           ConstKind = 9
	KMethodRef          ConstKind = 10
	KInterfaceMethodRef ConstKind = 11
	KNameAndType        ConstKind = 12
)

// String returns the JVM-style name of the constant kind.
func (k ConstKind) String() string {
	switch k {
	case KUtf8:
		return "Utf8"
	case KInteger:
		return "Integer"
	case KFloat:
		return "Float"
	case KLong:
		return "Long"
	case KDouble:
		return "Double"
	case KClass:
		return "Class"
	case KString:
		return "String"
	case KFieldRef:
		return "FieldRef"
	case KMethodRef:
		return "MethodRef"
	case KInterfaceMethodRef:
		return "InterfaceMethodRef"
	case KNameAndType:
		return "NameAndType"
	}
	return fmt.Sprintf("ConstKind(%d)", byte(k))
}

// Constant is one constant-pool entry. Which fields are meaningful depends
// on Kind:
//
//	Utf8:                Str
//	Integer, Long:       Int
//	Float, Double:       Float
//	Class, String:       A (Utf8 index)
//	NameAndType:         A (name Utf8), B (descriptor Utf8)
//	FieldRef, MethodRef,
//	InterfaceMethodRef:  A (Class index), B (NameAndType index)
//
// Kind is last so that it packs beside A and B: 40 bytes an entry, not
// 48.
type Constant struct {
	Str   string
	Int   int64
	Float float64
	A, B  uint16
	Kind  ConstKind
}

// WireSize returns the serialized size of the entry in bytes, including
// its one-byte tag. Sizes follow the JVM class-file format.
func (c Constant) WireSize() int {
	switch c.Kind {
	case KUtf8:
		return 3 + len(c.Str)
	case KInteger, KFloat:
		return 5
	case KLong, KDouble:
		return 9
	case KClass, KString:
		return 3
	case KFieldRef, KMethodRef, KInterfaceMethodRef, KNameAndType:
		return 5
	}
	panic(fmt.Sprintf("classfile: bad constant kind %d", c.Kind))
}

// Attribute is a named binary attribute (SourceFile, Deprecated, …).
// Name indexes a Utf8 constant.
type Attribute struct {
	Name uint16
	Data []byte
}

// WireSize returns the serialized size: name u16 + length u32 + data.
func (a Attribute) WireSize() int { return 2 + 4 + len(a.Data) }

// Field is a static (class) field. Name and Desc index Utf8 constants.
type Field struct {
	Flags uint16
	Name  uint16
	Desc  uint16
	Attrs []Attribute
}

// WireSize returns the serialized size of the field_info structure.
func (f Field) WireSize() int {
	n := 2 + 2 + 2 + 2 // flags, name, desc, attr count
	for _, a := range f.Attrs {
		n += a.WireSize()
	}
	return n
}

// Method is one method of a class: a header (flags, name, descriptor,
// frame sizes), a local-data blob, and bytecode. The local data models the
// per-method data the paper transfers together with each procedure
// (literal tables, exception tables, line-number tables); it must arrive
// before the method may execute but is not interpreted by the VM.
type Method struct {
	Flags     uint16
	Name      uint16 // Utf8 index
	Desc      uint16 // Utf8 index
	MaxLocals uint16
	MaxStack  uint16
	LocalData []byte
	Code      []byte

	// NArgs and NRet are derived from the descriptor at build/parse
	// time so the VM and verifier need not re-parse it.
	NArgs, NRet int
}

// HeaderWireSize is the serialized size of a method-table header entry:
// flags, name, desc, maxlocals, maxstack (u16 each) plus local-data and
// code lengths (u32 each). Headers live in the global-data section so
// class-level linking can complete before any method body arrives.
const HeaderWireSize = 5*2 + 2*4

// BodyWireSize returns the size of the streamed method body: local data,
// code, and the trailing delimiter.
func (m *Method) BodyWireSize() int { return len(m.LocalData) + len(m.Code) + DelimSize }

// Class is one class file.
type Class struct {
	Name  string // redundant with CP[ThisClass] but convenient
	Super string

	CP         []Constant // index 0 is unused, per JVM convention
	ThisClass  uint16     // Class constant index
	SuperClass uint16     // Class constant index (0 = none)
	Interfaces []uint16   // Class constant indices
	Fields     []Field
	Attrs      []Attribute
	Methods    []*Method
}

// Utf8 returns the string of the Utf8 constant at index i, or panics if i
// is out of range or not a Utf8 entry. It is used on trusted, verified
// pools; the verifier rejects malformed indices first.
func (c *Class) Utf8(i uint16) string {
	e := c.Const(i)
	if e.Kind != KUtf8 {
		panic(fmt.Sprintf("classfile: constant %d is %v, want Utf8", i, e.Kind))
	}
	return e.Str
}

// Const returns the constant at index i, panicking on out-of-range.
func (c *Class) Const(i uint16) Constant {
	if int(i) <= 0 || int(i) >= len(c.CP) {
		panic(fmt.Sprintf("classfile: constant index %d out of range [1,%d)", i, len(c.CP)))
	}
	return c.CP[i]
}

// ClassName resolves a Class constant at index i to its name.
func (c *Class) ClassName(i uint16) string {
	e := c.Const(i)
	if e.Kind != KClass {
		panic(fmt.Sprintf("classfile: constant %d is %v, want Class", i, e.Kind))
	}
	return c.Utf8(e.A)
}

// MethodName returns the name of method m (via its Utf8 constant).
func (c *Class) MethodName(m *Method) string { return c.Utf8(m.Name) }

// MethodByName returns the first method named name, or nil.
func (c *Class) MethodByName(name string) *Method {
	for _, m := range c.Methods {
		if c.Utf8(m.Name) == name {
			return m
		}
	}
	return nil
}

// RefTarget resolves a FieldRef/MethodRef/InterfaceMethodRef constant to
// (class name, member name, descriptor).
func (c *Class) RefTarget(i uint16) (class, name, desc string) {
	e := c.Const(i)
	switch e.Kind {
	case KFieldRef, KMethodRef, KInterfaceMethodRef:
	default:
		panic(fmt.Sprintf("classfile: constant %d is %v, want a member ref", i, e.Kind))
	}
	nt := c.Const(e.B)
	if nt.Kind != KNameAndType {
		panic(fmt.Sprintf("classfile: ref %d: B=%d is %v, want NameAndType", i, e.B, nt.Kind))
	}
	return c.ClassName(e.A), c.Utf8(nt.A), c.Utf8(nt.B)
}

// Ref names a method or field globally: class name plus member name.
// Descriptors are not part of the identity because the substrate does not
// support overloading.
type Ref struct {
	Class string
	Name  string
}

// String returns "Class.Name".
func (r Ref) String() string { return r.Class + "." + r.Name }

// MethodDescriptor builds a descriptor string "(I…I)I" or "(…)V" for a
// method with nargs integer parameters and nret (0 or 1) results.
func MethodDescriptor(nargs, nret int) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < nargs; i++ {
		b.WriteByte('I')
	}
	b.WriteByte(')')
	if nret == 0 {
		b.WriteByte('V')
	} else {
		b.WriteByte('I')
	}
	return b.String()
}

// ParseDescriptor inverts MethodDescriptor.
func ParseDescriptor(d string) (nargs, nret int, err error) {
	if len(d) < 3 || d[0] != '(' {
		return 0, 0, fmt.Errorf("classfile: bad descriptor %q", d)
	}
	i := 1
	for ; i < len(d) && d[i] == 'I'; i++ {
		nargs++
	}
	if i >= len(d)-1 || d[i] != ')' {
		return 0, 0, fmt.Errorf("classfile: bad descriptor %q", d)
	}
	switch d[i+1] {
	case 'V':
		nret = 0
	case 'I':
		nret = 1
	default:
		return 0, 0, fmt.Errorf("classfile: bad return type in %q", d)
	}
	if i+2 != len(d) {
		return 0, 0, fmt.Errorf("classfile: trailing junk in descriptor %q", d)
	}
	return nargs, nret, nil
}

// Program is a complete mobile application: a set of class files and the
// name of the class whose "main" method is the entry point.
type Program struct {
	Name      string
	Classes   []*Class
	MainClass string
}

// Class returns the class named name, or nil.
func (p *Program) Class(name string) *Class {
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Lookup resolves a Ref to its class and method.
func (p *Program) Lookup(r Ref) (*Class, *Method, error) {
	c := p.Class(r.Class)
	if c == nil {
		return nil, nil, fmt.Errorf("classfile: no class %q", r.Class)
	}
	m := c.MethodByName(r.Name)
	if m == nil {
		return nil, nil, fmt.Errorf("classfile: no method %q in class %q", r.Name, r.Class)
	}
	return c, m, nil
}

// Main returns the entry-point Ref.
func (p *Program) Main() Ref { return Ref{Class: p.MainClass, Name: "main"} }

// NumMethods returns the total method count across all classes.
func (p *Program) NumMethods() int {
	n := 0
	for _, c := range p.Classes {
		n += len(c.Methods)
	}
	return n
}

// TotalSize returns the summed wire size of every class file in bytes.
func (p *Program) TotalSize() int {
	n := 0
	for _, c := range p.Classes {
		n += c.WireSize()
	}
	return n
}

// StaticInstrs returns the total static instruction count of the program,
// assuming well-formed code (build and parse both validate it).
func (p *Program) StaticInstrs() int {
	n := 0
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			n += staticCount(m.Code)
		}
	}
	return n
}

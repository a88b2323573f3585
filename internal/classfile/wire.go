package classfile

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nonstrict/internal/bytecode"
)

// Magic identifies a serialized class file ("NSCF": Non-Strict Class File).
const Magic = 0x4E534346

// Version is the wire-format version.
const Version = 1

// DelimSize is the size of the method delimiter appended after each
// method body. The paper places a delimiter after each procedure and its
// data so the loader knows the method has fully arrived.
const DelimSize = 4

// Delim is the method-delimiter byte pattern.
var Delim = [DelimSize]byte{0xDE, 0x11, 0x3D, 0x5A}

// MethodLayout gives the byte extent of one method body within its
// serialized class file.
type MethodLayout struct {
	BodyStart int // offset of the local-data blob
	CodeStart int // offset of the first code byte
	DelimEnd  int // offset just past the delimiter; the method is
	// runnable once DelimEnd bytes of the file have arrived
}

// GlobalBreakdown itemizes the global-data section, in bytes. It is the
// data source for Tables 8 and 9.
type GlobalBreakdown struct {
	Total         int // size of the whole global-data section
	FixedHeader   int // magic, version, class refs, section counts
	CPool         int // constant-pool entries
	Interfaces    int
	Fields        int
	Attrs         int
	MethodHeaders int
	// CPByKind breaks the constant pool down by entry kind.
	CPByKind map[ConstKind]int
}

// Layout describes the serialized form of a class: where the global data
// ends and where each method body lies. Method entries parallel
// Class.Methods, so re-serializing after reordering Methods yields the
// reordered layout directly.
type Layout struct {
	GlobalEnd int // size of the global-data section
	Methods   []MethodLayout
	FileSize  int
	Breakdown GlobalBreakdown
}

// ComputeLayout computes the serialized layout of c without serializing.
// It must agree byte-for-byte with Serialize; TestLayoutMatchesSerialize
// enforces this.
func (c *Class) ComputeLayout() Layout {
	bd := c.globalData(make(map[ConstKind]int))
	l := Layout{GlobalEnd: bd.Total, Breakdown: bd}
	off := bd.Total
	for _, m := range c.Methods {
		ml := MethodLayout{BodyStart: off}
		off += len(m.LocalData)
		ml.CodeStart = off
		off += len(m.Code) + DelimSize
		ml.DelimEnd = off
		l.Methods = append(l.Methods, ml)
	}
	l.FileSize = off
	return l
}

// globalData itemizes the global-data section. It breaks the constant
// pool down by kind into byKind, which may be nil: Serialize sizes its
// buffer from the total alone.
func (c *Class) globalData(byKind map[ConstKind]int) GlobalBreakdown {
	bd := GlobalBreakdown{CPByKind: byKind}
	bd.FixedHeader = 4 + 2 + 2 + 2 // magic, version, thisClass, superClass

	bd.FixedHeader += 2 // cp count
	for _, e := range c.CP[min(1, len(c.CP)):] {
		n := e.WireSize()
		bd.CPool += n
		if byKind != nil {
			byKind[e.Kind] += n
		}
	}

	bd.FixedHeader += 2 // interface count
	bd.Interfaces = 2 * len(c.Interfaces)

	bd.FixedHeader += 2 // field count
	for _, f := range c.Fields {
		bd.Fields += f.WireSize()
	}

	bd.FixedHeader += 2 // class attribute count
	for _, a := range c.Attrs {
		bd.Attrs += a.WireSize()
	}

	bd.FixedHeader += 2 // method count
	bd.MethodHeaders = HeaderWireSize * len(c.Methods)

	bd.Total = bd.FixedHeader + bd.CPool + bd.Interfaces + bd.Fields +
		bd.Attrs + bd.MethodHeaders
	return bd
}

// WireSize returns the total serialized size of the class file.
func (c *Class) WireSize() int { return c.ComputeLayout().FileSize }

// GlobalSize returns the size of the global-data section.
func (c *Class) GlobalSize() int { return c.ComputeLayout().GlobalEnd }

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Serialize encodes the class into its wire format: the global-data
// section followed by each method body (local data, code, delimiter) in
// Methods order. The result is allocated once, at its exact size.
func (c *Class) Serialize() []byte {
	size := c.globalData(nil).Total
	for _, m := range c.Methods {
		size += m.BodyWireSize()
	}
	b := make([]byte, 0, size)
	b = appendU32(b, Magic)
	b = appendU16(b, Version)
	b = appendU16(b, c.ThisClass)
	b = appendU16(b, c.SuperClass)

	b = appendU16(b, uint16(len(c.CP)))
	for _, e := range c.CP[min(1, len(c.CP)):] {
		b = append(b, byte(e.Kind))
		switch e.Kind {
		case KUtf8:
			b = appendU16(b, uint16(len(e.Str)))
			b = append(b, e.Str...)
		case KInteger:
			b = appendU32(b, uint32(int32(e.Int)))
		case KFloat:
			b = appendU32(b, floatBits32(e.Float))
		case KLong:
			b = appendU32(b, uint32(uint64(e.Int)>>32))
			b = appendU32(b, uint32(uint64(e.Int)))
		case KDouble:
			bits := floatBits64(e.Float)
			b = appendU32(b, uint32(bits>>32))
			b = appendU32(b, uint32(bits))
		case KClass, KString:
			b = appendU16(b, e.A)
		case KFieldRef, KMethodRef, KInterfaceMethodRef, KNameAndType:
			b = appendU16(b, e.A)
			b = appendU16(b, e.B)
		default:
			panic(fmt.Sprintf("classfile: serialize: bad constant kind %d", e.Kind))
		}
	}

	b = appendU16(b, uint16(len(c.Interfaces)))
	for _, i := range c.Interfaces {
		b = appendU16(b, i)
	}

	b = appendU16(b, uint16(len(c.Fields)))
	for _, f := range c.Fields {
		b = appendU16(b, f.Flags)
		b = appendU16(b, f.Name)
		b = appendU16(b, f.Desc)
		b = appendU16(b, uint16(len(f.Attrs)))
		for _, a := range f.Attrs {
			b = appendU16(b, a.Name)
			b = appendU32(b, uint32(len(a.Data)))
			b = append(b, a.Data...)
		}
	}

	b = appendU16(b, uint16(len(c.Attrs)))
	for _, a := range c.Attrs {
		b = appendU16(b, a.Name)
		b = appendU32(b, uint32(len(a.Data)))
		b = append(b, a.Data...)
	}

	b = appendU16(b, uint16(len(c.Methods)))
	for _, m := range c.Methods {
		b = appendU16(b, m.Flags)
		b = appendU16(b, m.Name)
		b = appendU16(b, m.Desc)
		b = appendU16(b, m.MaxLocals)
		b = appendU16(b, m.MaxStack)
		b = appendU32(b, uint32(len(m.LocalData)))
		b = appendU32(b, uint32(len(m.Code)))
	}

	for _, m := range c.Methods {
		b = append(b, m.LocalData...)
		b = append(b, m.Code...)
		b = append(b, Delim[:]...)
	}
	return b
}

// Wire-format parse errors.
var (
	ErrBadMagic   = errors.New("classfile: bad magic")
	ErrBadVersion = errors.New("classfile: unsupported version")
	ErrTruncated  = errors.New("classfile: truncated file")
	ErrBadDelim   = errors.New("classfile: missing method delimiter")
)

type reader struct {
	b   []byte
	off int
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.b) {
		return fmt.Errorf("%w at offset %d (need %d bytes)", ErrTruncated, r.off, n)
	}
	return nil
}

// left returns how many bytes remain unread.
func (r *reader) left() int { return len(r.b) - r.off }

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v, nil
}

func (r *reader) attr() (Attribute, error) {
	name, err := r.u16()
	if err != nil {
		return Attribute{}, err
	}
	n, err := r.u32()
	if err != nil {
		return Attribute{}, err
	}
	data, err := r.bytes(int(n))
	if err != nil {
		return Attribute{}, err
	}
	return Attribute{Name: name, Data: data}, nil
}

// ParseGlobal parses only the global-data section of a serialized class:
// enough to link, verify class structure, and know every method's size
// and position before any method body has arrived. The returned class has
// method headers with empty LocalData/Code; bodies are described by the
// returned Layout. This is the entry point used by the streaming loader.
func ParseGlobal(data []byte) (*Class, Layout, error) {
	r := &reader{b: data}
	magic, err := r.u32()
	if err != nil {
		return nil, Layout{}, err
	}
	if magic != Magic {
		return nil, Layout{}, fmt.Errorf("%w: got %#x", ErrBadMagic, magic)
	}
	ver, err := r.u16()
	if err != nil {
		return nil, Layout{}, err
	}
	if ver != Version {
		return nil, Layout{}, fmt.Errorf("%w: got %d", ErrBadVersion, ver)
	}
	c := &Class{}
	if c.ThisClass, err = r.u16(); err != nil {
		return nil, Layout{}, err
	}
	if c.SuperClass, err = r.u16(); err != nil {
		return nil, Layout{}, err
	}

	cpCount, err := r.u16()
	if err != nil {
		return nil, Layout{}, err
	}
	c.CP = make([]Constant, 1, cpCount)
	cpStart := r.off
	for i := 1; i < int(cpCount); i++ {
		tagb, err := r.bytes(1)
		if err != nil {
			return nil, Layout{}, err
		}
		e := Constant{Kind: ConstKind(tagb[0])}
		switch e.Kind {
		case KUtf8:
			n, err := r.u16()
			if err != nil {
				return nil, Layout{}, err
			}
			if _, err := r.bytes(int(n)); err != nil { // text is cut from the pool below
				return nil, Layout{}, err
			}
		case KInteger:
			v, err := r.u32()
			if err != nil {
				return nil, Layout{}, err
			}
			e.Int = int64(int32(v))
		case KFloat:
			v, err := r.u32()
			if err != nil {
				return nil, Layout{}, err
			}
			e.Float = floatFrom32(v)
		case KLong:
			hi, err := r.u32()
			if err != nil {
				return nil, Layout{}, err
			}
			lo, err := r.u32()
			if err != nil {
				return nil, Layout{}, err
			}
			e.Int = int64(uint64(hi)<<32 | uint64(lo))
		case KDouble:
			hi, err := r.u32()
			if err != nil {
				return nil, Layout{}, err
			}
			lo, err := r.u32()
			if err != nil {
				return nil, Layout{}, err
			}
			e.Float = floatFrom64(uint64(hi)<<32 | uint64(lo))
		case KClass, KString:
			if e.A, err = r.u16(); err != nil {
				return nil, Layout{}, err
			}
		case KFieldRef, KMethodRef, KInterfaceMethodRef, KNameAndType:
			if e.A, err = r.u16(); err != nil {
				return nil, Layout{}, err
			}
			if e.B, err = r.u16(); err != nil {
				return nil, Layout{}, err
			}
		default:
			return nil, Layout{}, fmt.Errorf("classfile: bad constant tag %d at entry %d", tagb[0], i)
		}
		c.CP = append(c.CP, e)
	}
	// One string for the whole pool region, every Utf8 entry a substring
	// of it: a class's names cost one allocation, not one each.
	pool := string(data[cpStart:r.off])
	for i, pos := 1, 0; i < len(c.CP); i++ {
		e := &c.CP[i]
		if e.Kind == KUtf8 {
			n := int(binary.BigEndian.Uint16(data[cpStart+pos+1:]))
			e.Str = pool[pos+3 : pos+3+n]
		}
		pos += e.WireSize() // a Utf8 entry's counts the text just set
	}

	// The counts below are untrusted: each sizes its slice by what the
	// remaining bytes could hold at most, so a hostile count cannot
	// reserve more than the input's own length.
	nIfc, err := r.u16()
	if err != nil {
		return nil, Layout{}, err
	}
	if nIfc > 0 {
		c.Interfaces = make([]uint16, 0, min(int(nIfc), r.left()/2))
	}
	for i := 0; i < int(nIfc); i++ {
		v, err := r.u16()
		if err != nil {
			return nil, Layout{}, err
		}
		c.Interfaces = append(c.Interfaces, v)
	}

	nFields, err := r.u16()
	if err != nil {
		return nil, Layout{}, err
	}
	if nFields > 0 {
		c.Fields = make([]Field, 0, min(int(nFields), r.left()/8))
	}
	for i := 0; i < int(nFields); i++ {
		var f Field
		if f.Flags, err = r.u16(); err != nil {
			return nil, Layout{}, err
		}
		if f.Name, err = r.u16(); err != nil {
			return nil, Layout{}, err
		}
		if f.Desc, err = r.u16(); err != nil {
			return nil, Layout{}, err
		}
		nAttrs, err := r.u16()
		if err != nil {
			return nil, Layout{}, err
		}
		for j := 0; j < int(nAttrs); j++ {
			a, err := r.attr()
			if err != nil {
				return nil, Layout{}, err
			}
			f.Attrs = append(f.Attrs, a)
		}
		c.Fields = append(c.Fields, f)
	}

	nAttrs, err := r.u16()
	if err != nil {
		return nil, Layout{}, err
	}
	for i := 0; i < int(nAttrs); i++ {
		a, err := r.attr()
		if err != nil {
			return nil, Layout{}, err
		}
		c.Attrs = append(c.Attrs, a)
	}

	nMethods, err := r.u16()
	if err != nil {
		return nil, Layout{}, err
	}
	// One backing array for the method headers and one for their
	// layouts; the layout offsets are relative to the end of the global
	// data until that is known.
	var methods []Method
	var l Layout
	if maxMethods := min(int(nMethods), r.left()/HeaderWireSize); maxMethods > 0 {
		methods = make([]Method, 0, maxMethods)
		l.Methods = make([]MethodLayout, 0, maxMethods)
		c.Methods = make([]*Method, 0, maxMethods)
	}
	off := 0
	for i := 0; i < int(nMethods); i++ {
		var m Method
		if m.Flags, err = r.u16(); err != nil {
			return nil, Layout{}, err
		}
		if m.Name, err = r.u16(); err != nil {
			return nil, Layout{}, err
		}
		if m.Desc, err = r.u16(); err != nil {
			return nil, Layout{}, err
		}
		if m.MaxLocals, err = r.u16(); err != nil {
			return nil, Layout{}, err
		}
		if m.MaxStack, err = r.u16(); err != nil {
			return nil, Layout{}, err
		}
		nLocal, err := r.u32()
		if err != nil {
			return nil, Layout{}, err
		}
		nCode, err := r.u32()
		if err != nil {
			return nil, Layout{}, err
		}
		ml := MethodLayout{BodyStart: off}
		off += int(nLocal)
		ml.CodeStart = off
		off += int(nCode) + DelimSize
		ml.DelimEnd = off
		l.Methods = append(l.Methods, ml)
		// Never past maxMethods — this header's bytes were there to be
		// read — so the backing array does not move under c.Methods.
		methods = append(methods, m)
		c.Methods = append(c.Methods, &methods[len(methods)-1])
	}

	// Resolve derived fields that require the pool, with checked lookups
	// (the input is untrusted; the panicking accessors are for verified
	// classes only).
	utf8At := func(i uint16) (string, bool) {
		if int(i) <= 0 || int(i) >= len(c.CP) || c.CP[i].Kind != KUtf8 {
			return "", false
		}
		return c.CP[i].Str, true
	}
	classNameAt := func(i uint16, what string) (string, error) {
		if int(i) <= 0 || int(i) >= len(c.CP) || c.CP[i].Kind != KClass {
			return "", fmt.Errorf("classfile: %s: index %d is not a Class constant", what, i)
		}
		name, ok := utf8At(c.CP[i].A)
		if !ok {
			return "", fmt.Errorf("classfile: %s: Utf8 index %d invalid", what, c.CP[i].A)
		}
		return name, nil
	}
	if c.Name, err = classNameAt(c.ThisClass, "this_class"); err != nil {
		return nil, Layout{}, err
	}
	if c.SuperClass != 0 {
		if c.Super, err = classNameAt(c.SuperClass, "super_class"); err != nil {
			return nil, Layout{}, err
		}
	}
	for mi, m := range c.Methods {
		if _, ok := utf8At(m.Name); !ok {
			return nil, Layout{}, fmt.Errorf("classfile: method %d name: Utf8 index %d invalid", mi, m.Name)
		}
		desc, ok := utf8At(m.Desc)
		if !ok {
			return nil, Layout{}, fmt.Errorf("classfile: method %d descriptor: Utf8 index %d invalid", mi, m.Desc)
		}
		if m.NArgs, m.NRet, err = ParseDescriptor(desc); err != nil {
			return nil, Layout{}, err
		}
	}

	l.GlobalEnd = r.off
	for i := range l.Methods {
		ml := &l.Methods[i]
		ml.BodyStart += r.off
		ml.CodeStart += r.off
		ml.DelimEnd += r.off
	}
	l.FileSize = r.off + off
	return c, l, nil
}

// Parse decodes a complete serialized class file, including method bodies,
// and validates the method delimiters and code streams.
func Parse(data []byte) (*Class, error) {
	c, l, err := ParseGlobal(data)
	if err != nil {
		return nil, err
	}
	if l.FileSize > len(data) {
		return nil, fmt.Errorf("%w: file needs %d bytes, have %d", ErrTruncated, l.FileSize, len(data))
	}
	for i, m := range c.Methods {
		ml := l.Methods[i]
		m.LocalData = data[ml.BodyStart:ml.CodeStart:ml.CodeStart]
		m.Code = data[ml.CodeStart : ml.DelimEnd-DelimSize : ml.DelimEnd-DelimSize]
		if [DelimSize]byte(data[ml.DelimEnd-DelimSize:ml.DelimEnd]) != Delim {
			return nil, fmt.Errorf("%w: method %d", ErrBadDelim, i)
		}
		if _, err := bytecode.Decode(m.Code); err != nil {
			return nil, fmt.Errorf("classfile: method %s: %w", c.MethodName(m), err)
		}
	}
	return c, nil
}

func staticCount(code []byte) int {
	n, err := bytecode.Count(code)
	if err != nil {
		panic(fmt.Sprintf("classfile: malformed code: %v", err))
	}
	return n
}

package classfile

import (
	"math"
	"slices"
)

func floatBits32(f float64) uint32 { return math.Float32bits(float32(f)) }
func floatFrom32(b uint32) float64 { return float64(math.Float32frombits(b)) }
func floatBits64(f float64) uint64 { return math.Float64bits(f) }
func floatFrom64(b uint64) float64 { return math.Float64frombits(b) }

// Builder constructs a class and its constant pool with deduplication.
// One Builder builds one class after another: Reset starts the next
// class and keeps the interning tables' and the pool's storage, so a
// compile that builds every class of a program through one Builder
// allocates them once. A zero Builder is ready once Reset names its
// first class; NewBuilder does both.
type Builder struct {
	c  *Class
	cp []Constant // c's pool while it is built; Build copies it out to size

	utf8    map[string]uint16
	ints    map[int64]uint16
	longs   map[int64]uint16
	strings map[string]uint16
	classes map[string]uint16
	nats    map[[2]uint16]uint16
	frefs   map[[2]uint16]uint16
	mrefs   map[[2]uint16]uint16
	imrefs  map[[2]uint16]uint16
}

// NewBuilder starts a class named name extending super ("" for none).
func NewBuilder(name, super string) *Builder {
	b := new(Builder)
	b.Reset(name, super)
	return b
}

// Reset starts a new class named name extending super ("" for none).
// The class Build returned before is the caller's and is not touched.
func (b *Builder) Reset(name, super string) {
	if b.utf8 == nil {
		b.utf8 = make(map[string]uint16)
		b.ints = make(map[int64]uint16)
		b.longs = make(map[int64]uint16)
		b.strings = make(map[string]uint16)
		b.classes = make(map[string]uint16)
		b.nats = make(map[[2]uint16]uint16)
		b.frefs = make(map[[2]uint16]uint16)
		b.mrefs = make(map[[2]uint16]uint16)
		b.imrefs = make(map[[2]uint16]uint16)
	} else {
		clear(b.utf8)
		clear(b.ints)
		clear(b.longs)
		clear(b.strings)
		clear(b.classes)
		clear(b.nats)
		clear(b.frefs)
		clear(b.mrefs)
		clear(b.imrefs)
	}
	b.cp = append(b.cp[:0], Constant{})
	b.c = &Class{Name: name, Super: super}
	b.c.ThisClass = b.Class(name)
	if super != "" {
		b.c.SuperClass = b.Class(super)
	}
}

func (b *Builder) add(e Constant) uint16 {
	b.cp = append(b.cp, e)
	return uint16(len(b.cp) - 1)
}

// Utf8 interns a Utf8 constant and returns its index.
func (b *Builder) Utf8(s string) uint16 {
	if i, ok := b.utf8[s]; ok {
		return i
	}
	i := b.add(Constant{Kind: KUtf8, Str: s})
	b.utf8[s] = i
	return i
}

// Integer interns an Integer (32-bit range) or Long constant as needed.
func (b *Builder) Integer(v int64) uint16 {
	if v >= math.MinInt32 && v <= math.MaxInt32 {
		if i, ok := b.ints[v]; ok {
			return i
		}
		i := b.add(Constant{Kind: KInteger, Int: v})
		b.ints[v] = i
		return i
	}
	if i, ok := b.longs[v]; ok {
		return i
	}
	i := b.add(Constant{Kind: KLong, Int: v})
	b.longs[v] = i
	return i
}

// String interns a String constant (and its Utf8 payload).
func (b *Builder) String(s string) uint16 {
	if i, ok := b.strings[s]; ok {
		return i
	}
	u := b.Utf8(s)
	i := b.add(Constant{Kind: KString, A: u})
	b.strings[s] = i
	return i
}

// Class interns a Class constant.
func (b *Builder) Class(name string) uint16 {
	if i, ok := b.classes[name]; ok {
		return i
	}
	u := b.Utf8(name)
	i := b.add(Constant{Kind: KClass, A: u})
	b.classes[name] = i
	return i
}

// NameAndType interns a NameAndType constant.
func (b *Builder) NameAndType(name, desc string) uint16 {
	key := [2]uint16{b.Utf8(name), b.Utf8(desc)}
	if i, ok := b.nats[key]; ok {
		return i
	}
	i := b.add(Constant{Kind: KNameAndType, A: key[0], B: key[1]})
	b.nats[key] = i
	return i
}

// MethodRef interns a MethodRef constant for class.name with the given
// arity.
func (b *Builder) MethodRef(class, name string, nargs, nret int) uint16 {
	key := [2]uint16{b.Class(class), b.NameAndType(name, MethodDescriptor(nargs, nret))}
	if i, ok := b.mrefs[key]; ok {
		return i
	}
	i := b.add(Constant{Kind: KMethodRef, A: key[0], B: key[1]})
	b.mrefs[key] = i
	return i
}

// InterfaceMethodRef interns an InterfaceMethodRef constant. The substrate
// never invokes through interfaces, but real class files carry these
// entries and they participate in the Table 8 size breakdown.
func (b *Builder) InterfaceMethodRef(class, name string, nargs, nret int) uint16 {
	key := [2]uint16{b.Class(class), b.NameAndType(name, MethodDescriptor(nargs, nret))}
	if i, ok := b.imrefs[key]; ok {
		return i
	}
	i := b.add(Constant{Kind: KInterfaceMethodRef, A: key[0], B: key[1]})
	b.imrefs[key] = i
	return i
}

// FieldRef interns a FieldRef constant for a static int field class.name.
func (b *Builder) FieldRef(class, name string) uint16 {
	key := [2]uint16{b.Class(class), b.NameAndType(name, "I")}
	if i, ok := b.frefs[key]; ok {
		return i
	}
	i := b.add(Constant{Kind: KFieldRef, A: key[0], B: key[1]})
	b.frefs[key] = i
	return i
}

// AddField declares a static field on the class being built.
func (b *Builder) AddField(name string) {
	b.c.Fields = append(b.c.Fields, Field{
		Flags: 0x0008, // ACC_STATIC
		Name:  b.Utf8(name),
		Desc:  b.Utf8("I"),
	})
}

// AddInterface declares an implemented interface.
func (b *Builder) AddInterface(name string) {
	b.c.Interfaces = append(b.c.Interfaces, b.Class(name))
}

// AddAttribute attaches a class-level attribute such as SourceFile.
func (b *Builder) AddAttribute(name string, data []byte) {
	b.c.Attrs = append(b.c.Attrs, Attribute{Name: b.Utf8(name), Data: data})
}

// AddMethod appends a method. Code must already be encoded bytecode.
func (b *Builder) AddMethod(name string, nargs, nret int, maxLocals, maxStack int, localData, code []byte) *Method {
	m := &Method{
		Flags:     0x0008, // ACC_STATIC
		Name:      b.Utf8(name),
		Desc:      b.Utf8(MethodDescriptor(nargs, nret)),
		MaxLocals: uint16(maxLocals),
		MaxStack:  uint16(maxStack),
		LocalData: localData,
		Code:      code,
		NArgs:     nargs,
		NRet:      nret,
	}
	b.c.Methods = append(b.c.Methods, m)
	return m
}

// Build returns the finished class, its constant pool copied to size.
// Call Reset before building another class with b.
func (b *Builder) Build() *Class {
	b.c.CP = slices.Clone(b.cp)
	return b.c
}

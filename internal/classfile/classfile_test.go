package classfile

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"nonstrict/internal/bytecode"
)

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

// buildSample constructs a two-method class exercising every constant
// kind and structure the wire format carries.
func buildSample() *Class {
	b := NewBuilder("App", "Object")
	b.AddInterface("Runnable")
	b.AddField("state")
	b.AddField("result")
	b.AddAttribute("SourceFile", []byte("App.java"))
	b.String("hello world")
	b.Integer(1 << 40) // Long
	b.Integer(12345)   // Integer
	b.InterfaceMethodRef("Runnable", "run", 0, 0)
	b.add(Constant{Kind: KFloat, Float: 1.5})
	b.add(Constant{Kind: KDouble, Float: 2.25})

	mainCode := bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.BIPUSH, Arg: 7},
		{Op: bytecode.INVOKE, Arg: int32(b.MethodRef("App", "helper", 1, 1))},
		{Op: bytecode.PUTSTATIC, Arg: int32(b.FieldRef("App", "result"))},
		{Op: bytecode.HALT},
	})
	helperCode := bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.LOAD, Arg: 0},
		{Op: bytecode.BIPUSH, Arg: 2},
		{Op: bytecode.IMUL},
		{Op: bytecode.IRETURN},
	})
	b.AddMethod("main", 0, 0, 1, 2, []byte{1, 2, 3}, mainCode)
	b.AddMethod("helper", 1, 1, 1, 2, nil, helperCode)
	return b.Build()
}

func TestLayoutMatchesSerialize(t *testing.T) {
	c := buildSample()
	data := c.Serialize()
	l := c.ComputeLayout()
	if l.FileSize != len(data) {
		t.Fatalf("layout FileSize = %d, serialized = %d", l.FileSize, len(data))
	}
	bd := l.Breakdown
	sum := bd.FixedHeader + bd.CPool + bd.Interfaces + bd.Fields + bd.Attrs + bd.MethodHeaders
	if sum != bd.Total || bd.Total != l.GlobalEnd {
		t.Errorf("breakdown sum %d, Total %d, GlobalEnd %d", sum, bd.Total, l.GlobalEnd)
	}
	cpSum := 0
	for _, n := range bd.CPByKind {
		cpSum += n
	}
	if cpSum != bd.CPool {
		t.Errorf("CPByKind sums to %d, CPool = %d", cpSum, bd.CPool)
	}
	// Delimiters must sit exactly where the layout says.
	for i, ml := range l.Methods {
		got := [DelimSize]byte(data[ml.DelimEnd-DelimSize : ml.DelimEnd])
		if got != Delim {
			t.Errorf("method %d: bytes at delimiter = %x", i, got)
		}
	}
}

// cutBodies installs each method body of c from data at the offsets l
// gives, as the stream loader cuts a body unit out of its class file.
func cutBodies(c *Class, l Layout, data []byte) {
	for i, m := range c.Methods {
		ml := l.Methods[i]
		m.LocalData = data[ml.BodyStart:ml.CodeStart:ml.CodeStart]
		m.Code = data[ml.CodeStart : ml.DelimEnd-DelimSize : ml.DelimEnd-DelimSize]
	}
}

// TestParseRoundTrip: a class file parses along the loader's path —
// ParseGlobal over the whole file, then every body cut at the parsed
// layout's offsets — into the class that serialized it.
func TestParseRoundTrip(t *testing.T) {
	c := buildSample()
	data := c.Serialize()
	got, l, err := ParseGlobal(data)
	if err != nil {
		t.Fatal(err)
	}
	if l.FileSize != len(data) {
		t.Fatalf("parsed layout says %d bytes, file is %d", l.FileSize, len(data))
	}
	cutBodies(got, l, data)
	for i, ml := range l.Methods {
		if [DelimSize]byte(data[ml.DelimEnd-DelimSize:ml.DelimEnd]) != Delim {
			t.Errorf("method %d: no delimiter at the parsed layout's offset", i)
		}
	}
	if got.Name != "App" || got.Super != "Object" {
		t.Errorf("parsed identity = %q/%q", got.Name, got.Super)
	}
	if len(got.CP) != len(c.CP) {
		t.Fatalf("pool size %d, want %d", len(got.CP), len(c.CP))
	}
	for i := 1; i < len(c.CP); i++ {
		if c.CP[i] != got.CP[i] {
			t.Errorf("constant %d: %+v != %+v", i, got.CP[i], c.CP[i])
		}
	}
	if len(got.Methods) != 2 {
		t.Fatalf("parsed %d methods", len(got.Methods))
	}
	for i, m := range got.Methods {
		want := c.Methods[i]
		if string(m.Code) != string(want.Code) {
			t.Errorf("method %d code mismatch", i)
		}
		if string(m.LocalData) != string(want.LocalData) {
			t.Errorf("method %d local data mismatch", i)
		}
		if m.NArgs != want.NArgs || m.NRet != want.NRet {
			t.Errorf("method %d arity (%d,%d), want (%d,%d)", i, m.NArgs, m.NRet, want.NArgs, want.NRet)
		}
	}
	// Re-serializing the parse must be byte-identical.
	if string(got.Serialize()) != string(data) {
		t.Error("re-serialization differs")
	}
}

func TestParseGlobalOnly(t *testing.T) {
	c := buildSample()
	data := c.Serialize()
	l := c.ComputeLayout()
	// ParseGlobal must succeed given only the global-data prefix.
	got, gl, err := ParseGlobal(data[:l.GlobalEnd])
	if err != nil {
		t.Fatal(err)
	}
	if gl.GlobalEnd != l.GlobalEnd || gl.FileSize != l.FileSize {
		t.Errorf("streamed layout = {%d %d}, want {%d %d}", gl.GlobalEnd, gl.FileSize, l.GlobalEnd, l.FileSize)
	}
	for i := range l.Methods {
		if gl.Methods[i] != l.Methods[i] {
			t.Errorf("method %d layout %+v, want %+v", i, gl.Methods[i], l.Methods[i])
		}
	}
	if got.MethodByName("helper") == nil {
		t.Error("method headers not parsed from global section")
	}
}

// TestParseErrors: ParseGlobal rejects a bad magic, a bad version and a
// global section cut short, and the layout it returns for a file cut in
// its bodies says bytes are missing. (A corrupt delimiter is the body
// install's to reject: TestLoaderRejectsMalformedStreams in
// internal/stream.)
func TestParseErrors(t *testing.T) {
	c := buildSample()
	data := c.Serialize()

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, _, err := ParseGlobal(bad); err == nil {
		t.Error("bad magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[5] = 99 // version low byte
	if _, _, err := ParseGlobal(bad); err == nil {
		t.Error("bad version accepted")
	}

	for _, cut := range []int{3, 9, 20, len(data) / 2, len(data) - 1} {
		if _, l, err := ParseGlobal(data[:cut]); err == nil && l.FileSize <= cut {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestParseGlobalBoundsConstantPool: the constant-pool count is read
// from the wire, so a short global unit that claims 65 535 constants
// must not reserve room for them (it reserved 2.6 MB), and one that
// claims none must not panic (it asked for a pool of capacity 0 and
// length 1). Either way the parse fails, having allocated a small
// multiple of the unit's own length.
func TestParseGlobalBoundsConstantPool(t *testing.T) {
	data := make([]byte, 64)
	binary.BigEndian.PutUint32(data, Magic)
	binary.BigEndian.PutUint16(data[4:], Version)
	for i := 12; i < len(data); i++ {
		data[i] = 0xEE // no constant has this tag
	}
	for _, count := range []uint16{0, 65535} {
		binary.BigEndian.PutUint16(data[10:], count)
		if _, _, err := ParseGlobal(data); err == nil {
			t.Fatalf("count %d: a unit of garbage parsed", count)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			ParseGlobal(data)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 32*uint64(len(data)) {
			t.Errorf("count %d: parsing a %d-byte unit allocated %d B", count, len(data), got)
		}
	}
}

func TestConstantWireSizes(t *testing.T) {
	cases := []struct {
		c    Constant
		want int
	}{
		{Constant{Kind: KUtf8, Str: "abcd"}, 7},
		{Constant{Kind: KInteger}, 5},
		{Constant{Kind: KFloat}, 5},
		{Constant{Kind: KLong}, 9},
		{Constant{Kind: KDouble}, 9},
		{Constant{Kind: KClass}, 3},
		{Constant{Kind: KString}, 3},
		{Constant{Kind: KFieldRef}, 5},
		{Constant{Kind: KMethodRef}, 5},
		{Constant{Kind: KInterfaceMethodRef}, 5},
		{Constant{Kind: KNameAndType}, 5},
	}
	for _, tc := range cases {
		if got := tc.c.WireSize(); got != tc.want {
			t.Errorf("%v: WireSize = %d, want %d", tc.c.Kind, got, tc.want)
		}
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder("C", "")
	if b.Utf8("x") != b.Utf8("x") {
		t.Error("Utf8 not deduplicated")
	}
	if b.Integer(7) != b.Integer(7) {
		t.Error("Integer not deduplicated")
	}
	if b.Integer(1<<40) != b.Integer(1<<40) {
		t.Error("Long not deduplicated")
	}
	if b.String("s") != b.String("s") {
		t.Error("String not deduplicated")
	}
	if b.Class("K") != b.Class("K") {
		t.Error("Class not deduplicated")
	}
	if b.MethodRef("K", "m", 2, 1) != b.MethodRef("K", "m", 2, 1) {
		t.Error("MethodRef not deduplicated")
	}
	if b.FieldRef("K", "f") != b.FieldRef("K", "f") {
		t.Error("FieldRef not deduplicated")
	}
	if b.NameAndType("n", "I") != b.NameAndType("n", "I") {
		t.Error("NameAndType not deduplicated")
	}
	// Integer and Long with different values must differ.
	if b.Integer(1) == b.Integer(2) {
		t.Error("distinct integers share an entry")
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	f := func(nargs uint8, ret bool) bool {
		na := int(nargs) % 40
		nr := 0
		if ret {
			nr = 1
		}
		d := methodDescriptor(na, nr)
		ga, gr, err := ParseDescriptor(d)
		return err == nil && ga == na && gr == nr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseDescriptorErrors(t *testing.T) {
	for _, d := range []string{"", "()", "I", "(I", "I)V", "(X)V", "(I)X", "(I)VV", "(I)"} {
		if _, _, err := ParseDescriptor(d); err == nil {
			t.Errorf("ParseDescriptor(%q) succeeded", d)
		}
	}
}

func TestProgramHelpers(t *testing.T) {
	c := buildSample()
	p := &Program{Name: "t", Classes: []*Class{c}, MainClass: "App"}
	if p.Class("App") != c || p.Class("Nope") != nil {
		t.Error("Class lookup broken")
	}
	if p.NumMethods() != 2 {
		t.Errorf("NumMethods = %d", p.NumMethods())
	}
	if p.TotalSize() != c.WireSize() {
		t.Error("TotalSize mismatch")
	}
	if got := p.Main(); got != (Ref{Class: "App", Name: "main"}) {
		t.Errorf("Main = %v", got)
	}
	if _, _, err := p.Lookup(Ref{Class: "App", Name: "helper"}); err != nil {
		t.Error(err)
	}
	if _, _, err := p.Lookup(Ref{Class: "App", Name: "nope"}); err == nil {
		t.Error("Lookup of missing method succeeded")
	}
	if _, _, err := p.Lookup(Ref{Class: "Nope", Name: "x"}); err == nil {
		t.Error("Lookup of missing class succeeded")
	}
	if p.StaticInstrs() != 8 {
		t.Errorf("StaticInstrs = %d, want 8", p.StaticInstrs())
	}
}

func TestIndexMethods(t *testing.T) {
	c := buildSample()
	p := &Program{Name: "t", Classes: []*Class{c}, MainClass: "App"}
	ix := p.IndexMethods()
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	mainID := ix.ID(Ref{Class: "App", Name: "main"})
	if mainID == NoMethod {
		t.Fatal("main not indexed")
	}
	if ix.Ref(mainID).Name != "main" {
		t.Error("Ref(ID) mismatch")
	}
	if ix.Class(mainID) != c {
		t.Error("Class(ID) mismatch")
	}
	if ix.Method(mainID) != c.Methods[0] {
		t.Error("Method(ID) mismatch")
	}
	if ix.ID(Ref{Class: "App", Name: "zzz"}) != NoMethod {
		t.Error("missing method got an ID")
	}
	if ix.ClassIndex("App") != 0 || ix.ClassIndex("zzz") != -1 {
		t.Error("ClassIndex broken")
	}
}

// TestIndexGrowsOneClassAtATime: an index grown class by class over an
// arriving program numbers methods as IndexMethods numbers the whole
// program, and Add refuses, without changing the index, a class already
// indexed, a class with a method declared twice, and a class that is not
// the program's next one.
func TestIndexGrowsOneClassAtATime(t *testing.T) {
	ret := bytecode.Encode([]bytecode.Instr{{Op: bytecode.RETURN}})
	class := func(name string, methods ...string) *Class {
		b := NewBuilder(name, "Object")
		for _, m := range methods {
			b.AddMethod(m, 0, 0, 0, 1, nil, ret)
		}
		return b.Build()
	}
	app, b := buildSample(), class("B", "x", "y")
	whole := (&Program{Name: "t", Classes: []*Class{app, b}, MainClass: "App"}).IndexMethods()

	arriving := &Program{Name: "t", MainClass: "App"}
	ix := NewIndex(arriving, 0)
	for _, c := range []*Class{app, b} {
		if err := ix.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if len(arriving.Classes) != 2 || arriving.Classes[1] != b {
		t.Fatalf("the arriving program holds %d classes, want App and B", len(arriving.Classes))
	}
	if ix.Len() != whole.Len() {
		t.Fatalf("grown index has %d methods, whole %d", ix.Len(), whole.Len())
	}
	for id := MethodID(0); int(id) < ix.Len(); id++ {
		if ix.Ref(id) != whole.Ref(id) || ix.Class(id) != whole.Class(id) || ix.Method(id) != whole.Method(id) {
			t.Errorf("method %d: grown %v, whole %v", id, ix.Ref(id), whole.Ref(id))
		}
		if ix.ID(ix.Ref(id)) != id {
			t.Errorf("ID(Ref(%d)) = %d", id, ix.ID(ix.Ref(id)))
		}
	}
	if ix.ClassIndex("B") != 1 {
		t.Errorf("ClassIndex(B) = %d, want 1", ix.ClassIndex("B"))
	}

	for _, tc := range []struct {
		name string
		ix   *Index
		c    *Class
		want string
	}{
		{"duplicate-class", ix, class("B", "z"), "duplicate class B"},
		{"duplicate-method", ix, class("C", "p", "q", "p"), "duplicate method C.p"},
		{"not-next-class", NewIndex(&Program{Name: "t", Classes: []*Class{app, b}}, 0), b, "not class 0"},
	} {
		n, classes := tc.ix.Len(), len(tc.ix.Program().Classes)
		if err := tc.ix.Add(tc.c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if tc.ix.Len() != n || len(tc.ix.Program().Classes) != classes || tc.ix.ID(Ref{Class: tc.c.Name, Name: "p"}) != NoMethod {
			t.Errorf("%s: a refused Add changed the index", tc.name)
		}
	}
}

func TestRefTargetAndNames(t *testing.T) {
	c := buildSample()
	// Find the MethodRef for App.helper.
	for i := 1; i < len(c.CP); i++ {
		if c.CP[i].Kind == KMethodRef {
			cls, name, desc := c.RefTarget(uint16(i))
			if cls != "App" || name != "helper" || desc != "(I)I" {
				t.Errorf("RefTarget = %q %q %q", cls, name, desc)
			}
		}
	}
	if c.ClassName(c.ThisClass) != "App" {
		t.Error("ClassName(ThisClass) broken")
	}
	if c.MethodName(c.Methods[1]) != "helper" {
		t.Error("MethodName broken")
	}
}

func TestStringersAndAccessors(t *testing.T) {
	kinds := []ConstKind{KUtf8, KInteger, KFloat, KLong, KDouble, KClass,
		KString, KFieldRef, KMethodRef, KInterfaceMethodRef, KNameAndType}
	for _, k := range kinds {
		if s := k.String(); s == "" || strings.HasPrefix(s, "ConstKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if s := ConstKind(99).String(); !strings.HasPrefix(s, "ConstKind(") {
		t.Errorf("unknown kind string = %q", s)
	}
	if (Ref{Class: "A", Name: "b"}).String() != "A.b" {
		t.Error("Ref.String broken")
	}
	c := buildSample()
	m := c.Methods[0]
	if got := m.BodyWireSize(); got != len(m.LocalData)+len(m.Code)+DelimSize {
		t.Errorf("BodyWireSize = %d", got)
	}
	if c.GlobalSize() != c.ComputeLayout().GlobalEnd {
		t.Error("GlobalSize mismatch")
	}
	p := &Program{Name: "t", Classes: []*Class{c}, MainClass: "App"}
	ix := p.IndexMethods()
	if ix.Program() != p {
		t.Error("Index.Program mismatch")
	}
}

func TestPanickingAccessors(t *testing.T) {
	c := buildSample()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Const(0)", func() { c.Const(0) })
	mustPanic("Const(oob)", func() { c.Const(uint16(len(c.CP))) })
	mustPanic("Utf8(class)", func() { c.Utf8(c.ThisClass) })
	mustPanic("ClassName(utf8)", func() { c.ClassName(c.Methods[0].Name) })
	mustPanic("RefTarget(utf8)", func() { c.RefTarget(c.Methods[0].Name) })
}

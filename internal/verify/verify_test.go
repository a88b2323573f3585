package verify

import (
	"fmt"
	"strings"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
)

// TestAllBenchmarksVerify proves the incremental verifier accepts every
// class file the suite generates, at both granularities.
func TestAllBenchmarksVerify(t *testing.T) {
	for _, a := range apps.All() {
		cp, err := jir.Compile(a.IR)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if err := VerifyProgram(cp); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func okClass(t *testing.T) *classfile.Class {
	t.Helper()
	b := classfile.NewBuilder("C", "Object")
	b.AddField("f")
	code := bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.BIPUSH, Arg: 3},
		{Op: bytecode.INVOKE, Arg: int32(b.MethodRef("C", "g", 1, 1))},
		{Op: bytecode.PUTSTATIC, Arg: int32(b.FieldRef("C", "f"))},
		{Op: bytecode.HALT},
	})
	b.AddMethod("main", 0, 0, 1, 2, nil, code)
	gcode := bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.LOAD, Arg: 0},
		{Op: bytecode.IRETURN},
	})
	b.AddMethod("g", 1, 1, 1, 1, nil, gcode)
	return b.Build()
}

func TestVerifyGlobalAcceptsWellFormed(t *testing.T) {
	c := okClass(t)
	if err := VerifyGlobal(c); err != nil {
		t.Fatal(err)
	}
	p := &classfile.Program{Name: "t", Classes: []*classfile.Class{c}, MainClass: "C"}
	if err := VerifyClass(c, ProgramResolver{Prog: p}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyGlobalRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *classfile.Class)
		want   string
	}{
		{"bad-tag", func(c *classfile.Class) {
			c.CP[1].Kind = classfile.ConstKind(99)
		}, "invalid tag"},
		{"dangling-class-utf8", func(c *classfile.Class) {
			for i := range c.CP {
				if c.CP[i].Kind == classfile.KClass {
					c.CP[i].A = 9999
				}
			}
		}, "pool has"},
		{"string-ref-to-class", func(c *classfile.Class) {
			// Point a NameAndType's name at a Class constant.
			for i := range c.CP {
				if c.CP[i].Kind == classfile.KNameAndType {
					c.CP[i].A = c.ThisClass
				}
			}
		}, "want Utf8"},
		{"this-not-class", func(c *classfile.Class) {
			c.ThisClass = c.Methods[0].Name // a Utf8
		}, "this_class"},
		{"dup-method", func(c *classfile.Class) {
			c.Methods[1].Name = c.Methods[0].Name
			c.Methods[1].Desc = c.Methods[0].Desc
			c.Methods[1].NArgs = c.Methods[0].NArgs
			c.Methods[1].NRet = c.Methods[0].NRet
		}, "duplicate method"},
		{"locals-below-arity", func(c *classfile.Class) {
			c.Methods[1].MaxLocals = 0
		}, "below arity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := okClass(t)
			tc.mutate(c)
			if err := VerifyGlobal(c); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestVerifyGlobalDuplicateMethodBothPaths: the duplicate-name check
// runs pairwise up to pairwiseMethods methods and through a set above
// it; both accept distinct names and both reject a name declared twice.
func TestVerifyGlobalDuplicateMethodBothPaths(t *testing.T) {
	code := bytecode.Encode([]bytecode.Instr{{Op: bytecode.RETURN}})
	for _, n := range []int{pairwiseMethods, pairwiseMethods + 1} {
		b := classfile.NewBuilder("C", "")
		for i := range n {
			b.AddMethod(fmt.Sprintf("m%d", i), 0, 0, 0, 1, nil, code)
		}
		c := b.Build()
		if err := VerifyGlobal(c); err != nil {
			t.Fatalf("%d distinct methods: %v", n, err)
		}
		c.Methods[n-1].Name = c.Methods[0].Name
		if err := VerifyGlobal(c); err == nil || !strings.Contains(err.Error(), "duplicate method") {
			t.Fatalf("%d methods, last named like the first: err = %v, want a duplicate method", n, err)
		}
	}
}

// rawMethod assembles a method for negative tests.
func rawMethod(t *testing.T, maxLocals, maxStack int, code []bytecode.Instr) (*classfile.Class, *classfile.Method) {
	t.Helper()
	b := classfile.NewBuilder("C", "")
	m := b.AddMethod("m", 0, 0, maxLocals, maxStack, nil, bytecode.Encode(code))
	return b.Build(), m
}

func TestVerifyMethodRejects(t *testing.T) {
	cases := []struct {
		name   string
		locals int
		stack  int
		code   []bytecode.Instr
		want   string
	}{
		{"underflow", 0, 4, []bytecode.Instr{{Op: bytecode.IADD}, {Op: bytecode.RETURN}}, "underflow"},
		{"overflow", 0, 1, []bytecode.Instr{
			{Op: bytecode.BIPUSH, Arg: 1}, {Op: bytecode.BIPUSH, Arg: 2}, {Op: bytecode.RETURN}},
			"exceeds MaxStack"},
		{"fall-off-end", 0, 2, []bytecode.Instr{{Op: bytecode.BIPUSH, Arg: 1}}, "falls off"},
		{"bad-branch", 0, 2, []bytecode.Instr{{Op: bytecode.GOTO, Arg: 1}}, "middle of an instruction"},
		{"local-oob", 0, 2, []bytecode.Instr{{Op: bytecode.LOAD, Arg: 5}, {Op: bytecode.RETURN}}, "MaxLocals"},
		{"empty", 0, 1, nil, "empty code"},
		{"inconsistent-join", 0, 4, []bytecode.Instr{
			// Push 1; if it is zero jump to offset 7 where depth would
			// differ (the branch target receives depth 0 via one path
			// and 1 via the fall-through push below).
			{Op: bytecode.BIPUSH, Arg: 1}, // 0: depth 1
			{Op: bytecode.IFEQ, Arg: 5},   // 2: pops -> 0; target 7
			{Op: bytecode.BIPUSH, Arg: 9}, // 5: depth 1
			{Op: bytecode.NOP},            // 7: join: 1 vs 0
			{Op: bytecode.RETURN},         // 8
		}, "inconsistent stack depth"},
		{"ldc-bad-index", 0, 2, []bytecode.Instr{
			{Op: bytecode.LDC, Arg: 999}, {Op: bytecode.RETURN}}, "pool has"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, m := rawMethod(t, tc.locals, tc.stack, tc.code)
			err := VerifyMethod(c, m, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}

	// The same cases through one Scratch, with a long well-formed method
	// verified between them: what the previous method left in the scratch
	// must change neither a verdict nor its text.
	long := []bytecode.Instr{{Op: bytecode.RETURN}}
	for i := 0; i < 200; i++ {
		long = append([]bytecode.Instr{{Op: bytecode.BIPUSH, Arg: 1}, {Op: bytecode.IFEQ, Arg: 3}}, long...)
	}
	lc, lm := rawMethod(t, 0, 2, long)
	var s Scratch
	for _, tc := range cases {
		if err := s.VerifyMethod(lc, lm, nil); err != nil {
			t.Fatalf("long method: %v", err)
		}
		c, m := rawMethod(t, tc.locals, tc.stack, tc.code)
		fresh, reused := VerifyMethod(c, m, nil), s.VerifyMethod(c, m, nil)
		if reused == nil || reused.Error() != fresh.Error() {
			t.Errorf("%s: reused scratch says %v, fresh scratch %v", tc.name, reused, fresh)
		}
	}
}

func TestVerifyMethodCrossClass(t *testing.T) {
	// Build class C whose main calls D.f with descriptor (I)I, while D
	// actually declares f as ()V.
	b := classfile.NewBuilder("C", "")
	code := bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.BIPUSH, Arg: 1},
		{Op: bytecode.INVOKE, Arg: int32(b.MethodRef("D", "f", 1, 1))},
		{Op: bytecode.POP},
		{Op: bytecode.HALT},
	})
	b.AddMethod("main", 0, 0, 0, 2, nil, code)
	c := b.Build()

	d := classfile.NewBuilder("D", "")
	d.AddMethod("f", 0, 0, 0, 1, nil, bytecode.Encode([]bytecode.Instr{{Op: bytecode.RETURN}}))
	prog := &classfile.Program{Name: "t", Classes: []*classfile.Class{c, d.Build()}, MainClass: "C"}

	err := VerifyMethod(c, c.Methods[0], ProgramResolver{Prog: prog})
	if err == nil || !strings.Contains(err.Error(), "expects (1)->1") {
		t.Fatalf("err = %v", err)
	}

	// Without a resolver the cross-class check is deferred and the
	// method is internally consistent.
	if err := VerifyMethod(c, c.Methods[0], nil); err != nil {
		t.Fatalf("deferred verification failed: %v", err)
	}
}

// deferringResolver reports every class as not-yet-arrived.
type deferringResolver struct{}

func (deferringResolver) MethodArity(string, string) (int, int, bool) { return 0, 0, false }
func (deferringResolver) HasField(string, string) (bool, bool)        { return false, false }

func TestVerifyMethodDefersUnknownClasses(t *testing.T) {
	c := okClass(t)
	for _, m := range c.Methods {
		if err := VerifyMethod(c, m, deferringResolver{}); err != nil {
			t.Fatalf("deferring resolver rejected %s: %v", c.MethodName(m), err)
		}
	}
}

func TestIncrementalMatchesWhole(t *testing.T) {
	// Streaming order: global first, then methods one at a time, must
	// accept exactly what whole-class verification accepts.
	for _, a := range apps.All() {
		cp, err := jir.Compile(a.IR)
		if err != nil {
			t.Fatal(err)
		}
		res := ProgramResolver{Prog: cp}
		for _, c := range cp.Classes {
			if err := VerifyGlobal(c); err != nil {
				t.Fatalf("%s: global: %v", a.Name, err)
			}
			for _, m := range c.Methods {
				if err := VerifyMethod(c, m, res); err != nil {
					t.Fatalf("%s: %s.%s: %v", a.Name, c.Name, c.MethodName(m), err)
				}
			}
		}
	}
}

// TestScratchSteadyStateZeroAlloc pins what the scratch is for: once one
// pass over the largest workload has sized it, verifying a method
// allocates nothing — the loader's per-body verifier garbage is zero.
func TestScratchSteadyStateZeroAlloc(t *testing.T) {
	app, err := apps.ByName("Jess")
	if err != nil {
		t.Fatal(err)
	}
	p, err := jir.Compile(app.IR)
	if err != nil {
		t.Fatal(err)
	}
	var res Resolver = ProgramResolver{Prog: p}
	var s Scratch
	methods := 0
	pass := func() {
		methods = 0
		for _, c := range p.Classes {
			for _, m := range c.Methods {
				if err := s.VerifyMethod(c, m, res); err != nil {
					t.Fatal(err)
				}
				methods++
			}
		}
	}
	allocs := testing.AllocsPerRun(5, pass) // its warm-up call is the sizing pass
	t.Logf("Jess: %d methods, %.0f allocations per steady-state pass", methods, allocs)
	if allocs != 0 {
		t.Errorf("verifying %d methods through a sized scratch: %.0f allocations, want 0", methods, allocs)
	}
}

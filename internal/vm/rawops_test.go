package vm

import (
	"errors"
	"testing"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
)

// rawRun assembles a single main method, runs it and returns the machine.
func rawRun(t *testing.T, setup func(b *classfile.Builder) []bytecode.Instr) *Machine {
	t.Helper()
	m, err := rawLink(t, rawMethod{"main", setup}).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func out(t *testing.T, m *Machine) int64 {
	t.Helper()
	v, err := m.Global("M", "out")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRawOpcodes exercises opcodes the IR compiler never emits.
func TestRawOpcodes(t *testing.T) {
	t.Run("ipush", func(t *testing.T) {
		m := rawRun(t, func(b *classfile.Builder) []bytecode.Instr {
			return []bytecode.Instr{
				{Op: bytecode.IPUSH, Arg: -123456789},
				{Op: bytecode.PUTSTATIC, Arg: int32(b.FieldRef("M", "out"))},
				{Op: bytecode.HALT},
			}
		})
		if got := out(t, m); got != -123456789 {
			t.Errorf("out = %d", got)
		}
	})
	t.Run("nop-dup-swap-pop", func(t *testing.T) {
		// push 3, push 9, swap, pop (drops 3), dup, add -> 18
		m := rawRun(t, func(b *classfile.Builder) []bytecode.Instr {
			return []bytecode.Instr{
				{Op: bytecode.NOP},
				{Op: bytecode.BIPUSH, Arg: 3},
				{Op: bytecode.BIPUSH, Arg: 9},
				{Op: bytecode.SWAP},
				{Op: bytecode.POP},
				{Op: bytecode.DUP},
				{Op: bytecode.IADD},
				{Op: bytecode.PUTSTATIC, Arg: int32(b.FieldRef("M", "out"))},
				{Op: bytecode.HALT},
			}
		})
		if got := out(t, m); got != 18 {
			t.Errorf("out = %d", got)
		}
	})
	t.Run("ldc-long", func(t *testing.T) {
		m := rawRun(t, func(b *classfile.Builder) []bytecode.Instr {
			return []bytecode.Instr{
				{Op: bytecode.LDC, Arg: int32(b.Integer(1 << 45))},
				{Op: bytecode.PUTSTATIC, Arg: int32(b.FieldRef("M", "out"))},
				{Op: bytecode.HALT},
			}
		})
		if got := out(t, m); got != 1<<45 {
			t.Errorf("out = %d", got)
		}
	})
	t.Run("ldc-string-materializes-fresh-arrays", func(t *testing.T) {
		// Loading the same string constant twice yields two distinct
		// arrays: writing through one must not affect the other.
		m := rawRun(t, func(b *classfile.Builder) []bytecode.Instr {
			s := int32(b.String("xyz"))
			return []bytecode.Instr{
				{Op: bytecode.LDC, Arg: s}, // a1
				{Op: bytecode.DUP},
				{Op: bytecode.BIPUSH, Arg: 0},
				{Op: bytecode.BIPUSH, Arg: 99}, // a1[0] = 99
				{Op: bytecode.ASTORE},
				{Op: bytecode.POP},
				{Op: bytecode.LDC, Arg: s}, // a2 (fresh)
				{Op: bytecode.BIPUSH, Arg: 0},
				{Op: bytecode.ALOAD}, // a2[0] == 'x'
				{Op: bytecode.PUTSTATIC, Arg: int32(b.FieldRef("M", "out"))},
				{Op: bytecode.HALT},
			}
		})
		if got := out(t, m); got != 'x' {
			t.Errorf("out = %d, want %d", got, 'x')
		}
	})
	t.Run("shift-masking", func(t *testing.T) {
		// Shift counts are masked to 6 bits, as in the JVM's long shifts.
		m := rawRun(t, func(b *classfile.Builder) []bytecode.Instr {
			return []bytecode.Instr{
				{Op: bytecode.BIPUSH, Arg: 1},
				{Op: bytecode.BIPUSH, Arg: 65}, // 65 & 63 == 1
				{Op: bytecode.ISHL},
				{Op: bytecode.PUTSTATIC, Arg: int32(b.FieldRef("M", "out"))},
				{Op: bytecode.HALT},
			}
		})
		if got := out(t, m); got != 2 {
			t.Errorf("1 << 65 = %d, want 2 (masked shift)", got)
		}
	})
}

// TestMainReturnEndsRun: a main that RETURNs (instead of HALT) ends the
// machine when its frame pops.
func TestMainReturnEndsRun(t *testing.T) {
	m := rawRun(t, func(b *classfile.Builder) []bytecode.Instr {
		return []bytecode.Instr{
			{Op: bytecode.BIPUSH, Arg: 5},
			{Op: bytecode.PUTSTATIC, Arg: int32(b.FieldRef("M", "out"))},
			{Op: bytecode.RETURN},
		}
	})
	if got := out(t, m); got != 5 {
		t.Errorf("out = %d", got)
	}
	if m.Steps() != 3 {
		t.Errorf("steps = %d, want 3", m.Steps())
	}
}

// rawMethod is one hand-assembled method of class M.
type rawMethod struct {
	name string
	code func(b *classfile.Builder) []bytecode.Instr
}

// rawLink links class M from raw methods, each taking and returning
// nothing; main must be among them.
func rawLink(t *testing.T, methods ...rawMethod) *Linked {
	t.Helper()
	b := classfile.NewBuilder("M", "")
	b.AddField("out")
	for _, m := range methods {
		b.AddMethod(m.name, 0, 0, 4, 8, nil, bytecode.Encode(m.code(b)))
	}
	p := &classfile.Program{Name: "raw", Classes: []*classfile.Class{b.Build()}, MainClass: "M"}
	ln, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func instrs(in ...bytecode.Instr) func(*classfile.Builder) []bytecode.Instr {
	return func(*classfile.Builder) []bytecode.Instr { return in }
}

// callThen calls M.callee, then runs rest.
func callThen(callee string, rest ...bytecode.Instr) func(*classfile.Builder) []bytecode.Instr {
	return func(b *classfile.Builder) []bytecode.Instr {
		return append([]bytecode.Instr{{Op: bytecode.INVOKE, Arg: int32(b.MethodRef("M", callee, 0, 0))}}, rest...)
	}
}

// divLoop divides 12 by i for i = 3, 2, 1, 0 and traps on the fourth
// pass, in the middle of the loop's block: two set-up instructions, three
// passes of nine, then the fourth pass's third instruction — step 32 —
// is the IDIV that traps.
func divLoop(*classfile.Builder) []bytecode.Instr {
	code := []bytecode.Instr{
		{Op: bytecode.BIPUSH, Arg: 3},
		{Op: bytecode.STORE, Arg: 0},
		{Op: bytecode.BIPUSH, Arg: 12}, // loop head
		{Op: bytecode.LOAD, Arg: 0},
		{Op: bytecode.IDIV},
		{Op: bytecode.POP},
		{Op: bytecode.LOAD, Arg: 0},
		{Op: bytecode.BIPUSH, Arg: 1},
		{Op: bytecode.ISUB},
		{Op: bytecode.STORE, Arg: 0},
		{Op: bytecode.GOTO}, // back to the loop head
	}
	back := 0
	for _, in := range code[2:10] {
		back -= in.Width()
	}
	code[10].Arg = int32(back)
	return code
}

// rawTraps are hand-assembled programs that trap, each with the smallest
// step budget under which the run reports its trap, not ErrMaxSteps: the
// instructions executed up to and including a trapping one, or before
// control falls off the end of the code.
var rawTraps = []struct {
	name    string
	methods []rawMethod
	frames  int // MaxFrames, 0 for the default
	steps   int64
	method  string // where the trap is reported
	pc      int32
	msg     string
}{
	{"main-falls-through", []rawMethod{
		{"main", instrs(bytecode.Instr{Op: bytecode.BIPUSH, Arg: 1}, bytecode.Instr{Op: bytecode.POP})},
	}, 0, 2, "main", 1, "pc out of range"},
	{"callee-falls-through", []rawMethod{
		{"main", callThen("f", bytecode.Instr{Op: bytecode.HALT})},
		{"f", instrs(bytecode.Instr{Op: bytecode.NOP})},
	}, 0, 2, "f", 0, "pc out of range"},
	{"empty-main", []rawMethod{
		{"main", instrs()},
	}, 0, 0, "main", -1, "pc out of range"},
	{"empty-callee", []rawMethod{
		{"main", callThen("f", bytecode.Instr{Op: bytecode.HALT})},
		{"f", instrs()},
	}, 0, 1, "f", -1, "pc out of range"},
	{"return-after-the-last-call", []rawMethod{
		{"main", callThen("f")},
		{"f", instrs(bytecode.Instr{Op: bytecode.NOP}, bytecode.Instr{Op: bytecode.RETURN})},
	}, 0, 3, "main", 0, "pc out of range"},
	{"div-in-mid-block", []rawMethod{
		{"main", divLoop},
	}, 0, 32, "main", 4, "division by zero"},
	{"call-depth", []rawMethod{
		{"main", callThen("r", bytecode.Instr{Op: bytecode.HALT})},
		{"r", callThen("r", bytecode.Instr{Op: bytecode.RETURN})},
	}, 4, 4, "r", 0, "call depth exceeds 4 frames"},
}

// TestRawTraps checks where each raw program traps and with what. Control
// that runs past a method's last instruction, or enters a method with no
// code, traps at the last instruction (−1 when there is none).
func TestRawTraps(t *testing.T) {
	for _, tc := range rawTraps {
		t.Run(tc.name, func(t *testing.T) {
			ln := rawLink(t, tc.methods...)
			_, err := ln.Run(Options{MaxFrames: tc.frames})
			var re *RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want a *RuntimeError", err)
			}
			want := RuntimeError{Method: classfile.Ref{Class: "M", Name: tc.method}, PC: tc.pc, Msg: tc.msg}
			if *re != want {
				t.Errorf("trap %+v, want %+v", *re, want)
			}
		})
	}
}

package vm

import (
	"errors"
	"fmt"
	"slices"
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
	// Traps inside superinstructions (fuse.go) report the member that
	// traps, as the instructions one at a time would.
	{"getstatic-bipush-aload/non-array", []rawMethod{{"main", func(b *classfile.Builder) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.GETSTATIC, int32(b.FieldRef("M", "out"))), ins(bytecode.BIPUSH, 1), ins(bytecode.ALOAD),
			ins(bytecode.HALT),
		}
	}}}, 0, 3, "main", 2, "aload on non-array"},
	{"getstatic-bipush-aload/out-of-range", []rawMethod{{"main", func(b *classfile.Builder) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 3), ins(bytecode.NEWARRAY), ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
			ins(bytecode.GETSTATIC, int32(b.FieldRef("M", "out"))), ins(bytecode.BIPUSH, -1), ins(bytecode.ALOAD),
			ins(bytecode.HALT),
		}
	}}}, 0, 6, "main", 5, "array index -1 out of range [0,3)"},
	{"load-iadd-aload/non-array", []rawMethod{{"main", instrs(
		ins(bytecode.BIPUSH, 5), ins(bytecode.BIPUSH, 0), ins(bytecode.LOAD, 0), ins(bytecode.IADD), ins(bytecode.ALOAD),
		ins(bytecode.HALT),
	)}}, 0, 5, "main", 4, "aload on non-array"},
	{"load-iadd-aload/out-of-range", []rawMethod{{"main", instrs(
		ins(bytecode.BIPUSH, 1), ins(bytecode.STORE, 0),
		ins(bytecode.BIPUSH, 2), ins(bytecode.NEWARRAY), ins(bytecode.BIPUSH, 1), ins(bytecode.LOAD, 0), ins(bytecode.IADD), ins(bytecode.ALOAD),
		ins(bytecode.HALT),
	)}}, 0, 8, "main", 7, "array index 2 out of range [0,2)"},
	{"load-load-arraylen/non-array", []rawMethod{{"main", instrs(
		ins(bytecode.LOAD, 0), ins(bytecode.LOAD, 1), ins(bytecode.ARRAYLEN),
		ins(bytecode.HALT),
	)}}, 0, 3, "main", 2, "arraylen on non-array"},
	{"aload-ifeq/non-array", []rawMethod{{"main", instrs(jumps(
		ins(bytecode.BIPUSH, 1), ins(bytecode.BIPUSH, 0), ins(bytecode.ALOAD), ins(bytecode.IFEQ, 0),
		ins(bytecode.HALT),
	)...)}}, 0, 3, "main", 2, "aload on non-array"},
	{"aload-ifeq/out-of-range", []rawMethod{{"main", instrs(jumps(
		ins(bytecode.BIPUSH, 1), ins(bytecode.NEWARRAY), ins(bytecode.BIPUSH, 1), ins(bytecode.ALOAD), ins(bytecode.IFEQ, 0),
		ins(bytecode.HALT),
	)...)}}, 0, 4, "main", 3, "array index 1 out of range [0,1)"},
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

// ins is one hand-assembled instruction, with its operand if it has one.
func ins(op bytecode.Op, arg ...int32) bytecode.Instr {
	in := bytecode.Instr{Op: op}
	if len(arg) > 0 {
		in.Arg = arg[0]
	}
	return in
}

// jumps converts the operands of code's branches from the index of the
// target instruction to the byte displacement the encoding takes.
func jumps(code ...bytecode.Instr) []bytecode.Instr {
	off := make([]int32, len(code)+1)
	for i, in := range code {
		off[i+1] = off[i] + int32(in.Width())
	}
	for i, in := range code {
		if in.Op.Info().Branch {
			code[i].Arg = off[in.Arg] - off[i]
		}
	}
	return code
}

// fusedCase runs one superinstruction on operands at its edges. Its code
// ends by storing its result in M.out and falling off its end, where the
// harness puts the terminal; a case that returns a value from the helper
// method M.<fn> names it in its code and gives the helper's body.
type fusedCase struct {
	name   string
	op     bytecode.Op // what the code must link to
	code   func(b *classfile.Builder, fn string) []bytecode.Instr
	helper []bytecode.Instr
	out    int64
}

// Locals 130, 200 and 255 sit above 127, where a slot read back as a
// signed byte would go wrong; immediates are negative where they can be.
var fusedCases = []fusedCase{
	{"load-bipush-ifcmpne/taken", xLoadBipushIfcmpne, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return jumps(
			ins(bytecode.BIPUSH, 7), ins(bytecode.STORE, 200), ins(bytecode.NOP),
			ins(bytecode.LOAD, 200), ins(bytecode.BIPUSH, -3), ins(bytecode.IFCMPNE, 8),
			ins(bytecode.BIPUSH, 1), ins(bytecode.GOTO, 9),
			ins(bytecode.BIPUSH, 2),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))))
	}, nil, 2},
	{"load-bipush-ifcmpne/not-taken", xLoadBipushIfcmpne, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return jumps(
			ins(bytecode.BIPUSH, -3), ins(bytecode.STORE, 200), ins(bytecode.NOP),
			ins(bytecode.LOAD, 200), ins(bytecode.BIPUSH, -3), ins(bytecode.IFCMPNE, 8),
			ins(bytecode.BIPUSH, 1), ins(bytecode.GOTO, 9),
			ins(bytecode.BIPUSH, 2),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))))
	}, nil, 1},
	{"load-bipush-ifcmpge/equal", xLoadBipushIfcmpge, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return jumps(
			ins(bytecode.BIPUSH, -3), ins(bytecode.STORE, 130), ins(bytecode.NOP),
			ins(bytecode.LOAD, 130), ins(bytecode.BIPUSH, -3), ins(bytecode.IFCMPGE, 8),
			ins(bytecode.BIPUSH, 1), ins(bytecode.GOTO, 9),
			ins(bytecode.BIPUSH, 2),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))))
	}, nil, 2},
	{"load-bipush-ifcmpge/less", xLoadBipushIfcmpge, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return jumps(
			ins(bytecode.BIPUSH, -4), ins(bytecode.STORE, 130), ins(bytecode.NOP),
			ins(bytecode.LOAD, 130), ins(bytecode.BIPUSH, -3), ins(bytecode.IFCMPGE, 8),
			ins(bytecode.BIPUSH, 1), ins(bytecode.GOTO, 9),
			ins(bytecode.BIPUSH, 2),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))))
	}, nil, 1},
	{"load-load-ifcmpge", xLoadLoadIfcmpge, func(b *classfile.Builder, _ string) []bytecode.Instr {
		// 5 >= 9 falls through; 9 >= 9 is taken.
		return jumps(
			ins(bytecode.BIPUSH, 5), ins(bytecode.STORE, 1), ins(bytecode.BIPUSH, 9), ins(bytecode.STORE, 255),
			ins(bytecode.NOP), ins(bytecode.LOAD, 1), ins(bytecode.LOAD, 255), ins(bytecode.IFCMPGE, 12),
			ins(bytecode.NOP), ins(bytecode.LOAD, 255), ins(bytecode.LOAD, 255), ins(bytecode.IFCMPGE, 14),
			ins(bytecode.BIPUSH, 1), ins(bytecode.GOTO, 16),
			ins(bytecode.BIPUSH, 2), ins(bytecode.GOTO, 16),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))))
	}, nil, 2},
	{"load-load-arraylen", xLoadLoadArraylen, func(b *classfile.Builder, _ string) []bytecode.Instr {
		// 11 - len(new [5]) = 6: the first load stays below the length.
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 11), ins(bytecode.STORE, 0),
			ins(bytecode.BIPUSH, 5), ins(bytecode.NEWARRAY), ins(bytecode.STORE, 200), ins(bytecode.NOP),
			ins(bytecode.LOAD, 0), ins(bytecode.LOAD, 200), ins(bytecode.ARRAYLEN), ins(bytecode.ISUB),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 6},
	{"load-load", xLoadLoad, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 40), ins(bytecode.STORE, 0), ins(bytecode.BIPUSH, -2), ins(bytecode.STORE, 255),
			ins(bytecode.NOP), ins(bytecode.LOAD, 0), ins(bytecode.LOAD, 255), ins(bytecode.ISUB),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 42},
	{"load-iadd-aload", xLoadIaddAload, func(b *classfile.Builder, _ string) []bytecode.Instr {
		// a[1 + 2] of a = new [4] with a[3] = 77.
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 4), ins(bytecode.NEWARRAY), ins(bytecode.DUP),
			ins(bytecode.BIPUSH, 3), ins(bytecode.BIPUSH, 77), ins(bytecode.ASTORE),
			ins(bytecode.BIPUSH, 2), ins(bytecode.STORE, 200),
			ins(bytecode.BIPUSH, 1), ins(bytecode.LOAD, 200), ins(bytecode.IADD), ins(bytecode.ALOAD),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 77},
	{"load-iadd", xLoadIadd, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, -9), ins(bytecode.STORE, 200),
			ins(bytecode.BIPUSH, 5), ins(bytecode.LOAD, 200), ins(bytecode.IADD),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, -4},
	{"load-iadd/keeps-the-array", xLoadIadd, func(b *classfile.Builder, _ string) []bytecode.Instr {
		// Arithmetic on an array reference changes its integer half
		// only, as IADD does: the sum is still an array of length 3.
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 3), ins(bytecode.NEWARRAY), ins(bytecode.LOAD, 0), ins(bytecode.IADD),
			ins(bytecode.ARRAYLEN),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 3},
	{"load-sipush-imul", xLoadSipushImul, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 3), ins(bytecode.STORE, 129), ins(bytecode.NOP),
			ins(bytecode.LOAD, 129), ins(bytecode.SIPUSH, -1000), ins(bytecode.IMUL),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, -3000},
	{"load-ireturn", xLoadIreturn, func(b *classfile.Builder, fn string) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.INVOKE, int32(b.MethodRef("M", fn, 0, 1))),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, []bytecode.Instr{
		ins(bytecode.BIPUSH, -12), ins(bytecode.STORE, 200), ins(bytecode.NOP),
		ins(bytecode.LOAD, 200), ins(bytecode.IRETURN),
	}, -12},
	{"store-load-load/aliased", xStoreLoadLoad, func(b *classfile.Builder, _ string) []bytecode.Instr {
		// STORE a; LOAD a reads back what was stored: 6 - 50.
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 50), ins(bytecode.STORE, 255),
			ins(bytecode.BIPUSH, 6), ins(bytecode.STORE, 200), ins(bytecode.LOAD, 200), ins(bytecode.LOAD, 255),
			ins(bytecode.ISUB),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, -44},
	{"store-load", xStoreLoad, func(b *classfile.Builder, _ string) []bytecode.Instr {
		// Stores 6 to local 200 and loads local 1 (-8): -8 * 6.
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, -8), ins(bytecode.STORE, 1), ins(bytecode.NOP),
			ins(bytecode.BIPUSH, 6), ins(bytecode.STORE, 200), ins(bytecode.LOAD, 1),
			ins(bytecode.NOP), ins(bytecode.LOAD, 200), ins(bytecode.IMUL),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, -48},
	{"iinc-goto", xIincGoto, func(b *classfile.Builder, _ string) []bytecode.Instr {
		// for local 150 from -2 while < 3: out counts the passes.
		return jumps(
			ins(bytecode.BIPUSH, -2), ins(bytecode.STORE, 150),
			ins(bytecode.LOAD, 150), ins(bytecode.BIPUSH, 3), ins(bytecode.IFCMPGE, 12), // 2: loop head
			ins(bytecode.GETSTATIC, int32(b.FieldRef("M", "out"))), ins(bytecode.NOP), ins(bytecode.BIPUSH, 1),
			ins(bytecode.IADD), ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
			ins(bytecode.IINC, 150), ins(bytecode.GOTO, 2),
			ins(bytecode.NOP)) // 12
	}, nil, 5},
	{"getstatic-bipush-aload", xGetstaticBipushAload, func(b *classfile.Builder, _ string) []bytecode.Instr {
		arr := int32(b.FieldRef("M", "arr"))
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 3), ins(bytecode.NEWARRAY), ins(bytecode.PUTSTATIC, arr),
			ins(bytecode.GETSTATIC, arr), ins(bytecode.NOP), ins(bytecode.BIPUSH, 2), ins(bytecode.BIPUSH, 9), ins(bytecode.ASTORE),
			ins(bytecode.GETSTATIC, arr), ins(bytecode.BIPUSH, 2), ins(bytecode.ALOAD),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 9},
	{"getstatic-bipush-imul", xGetstaticBipushImul, func(b *classfile.Builder, _ string) []bytecode.Instr {
		g := int32(b.FieldRef("M", "g"))
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 7), ins(bytecode.PUTSTATIC, g),
			ins(bytecode.GETSTATIC, g), ins(bytecode.BIPUSH, -6), ins(bytecode.IMUL),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, -42},
	{"getstatic-bipush", xGetstaticBipush, func(b *classfile.Builder, _ string) []bytecode.Instr {
		g := int32(b.FieldRef("M", "g"))
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 7), ins(bytecode.PUTSTATIC, g),
			ins(bytecode.GETSTATIC, g), ins(bytecode.BIPUSH, -128), ins(bytecode.ISUB),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 135},
	{"getstatic-load", xGetstaticLoad, func(b *classfile.Builder, _ string) []bytecode.Instr {
		g := int32(b.FieldRef("M", "g"))
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 7), ins(bytecode.PUTSTATIC, g), ins(bytecode.BIPUSH, 2), ins(bytecode.STORE, 200),
			ins(bytecode.GETSTATIC, g), ins(bytecode.LOAD, 200), ins(bytecode.ISUB),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 5},
	{"ldc-iand", xLdcIntIand, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, -1), ins(bytecode.LDC, int32(b.Integer(1<<40|0xff))), ins(bytecode.IAND),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 1<<40 | 0xff},
	{"iadd-ldc-iand", xIaddLdcIntIand, func(b *classfile.Builder, _ string) []bytecode.Instr {
		// (100 + 27) & 0x70
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 100), ins(bytecode.BIPUSH, 27), ins(bytecode.NOP),
			ins(bytecode.IADD), ins(bytecode.LDC, int32(b.Integer(0x70))), ins(bytecode.IAND),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 0x70},
	{"bipush-iand", xBipushIand, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 0x7f), ins(bytecode.BIPUSH, -16), ins(bytecode.IAND),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, 0x70},
	{"bipush-iadd", xBipushIadd, func(b *classfile.Builder, _ string) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.BIPUSH, 5), ins(bytecode.BIPUSH, -128), ins(bytecode.IADD),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, nil, -123},
	{"bipush-ireturn", xBipushIreturn, func(b *classfile.Builder, fn string) []bytecode.Instr {
		return []bytecode.Instr{
			ins(bytecode.INVOKE, int32(b.MethodRef("M", fn, 0, 1))),
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))),
		}
	}, []bytecode.Instr{ins(bytecode.BIPUSH, -7), ins(bytecode.IRETURN)}, -7},
	{"aload-ifeq", xAloadIfeq, func(b *classfile.Builder, _ string) []bytecode.Instr {
		// a = new [2], a[0] = 5: a[0] == 0 falls through, a[1] == 0 is taken.
		return jumps(
			ins(bytecode.BIPUSH, 2), ins(bytecode.NEWARRAY), ins(bytecode.STORE, 200),
			ins(bytecode.LOAD, 200), ins(bytecode.BIPUSH, 0), ins(bytecode.BIPUSH, 5), ins(bytecode.ASTORE),
			ins(bytecode.LOAD, 200), ins(bytecode.BIPUSH, 0), ins(bytecode.ALOAD), ins(bytecode.IFEQ, 17), // 7
			ins(bytecode.LOAD, 200), ins(bytecode.BIPUSH, 1), ins(bytecode.ALOAD), ins(bytecode.IFEQ, 19), // 11
			ins(bytecode.BIPUSH, 1), ins(bytecode.GOTO, 20),
			ins(bytecode.BIPUSH, 2), ins(bytecode.GOTO, 20), // 17
			ins(bytecode.BIPUSH, 3), // 19
			ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "out"))))
	}, nil, 3},
}

// fusedLink links class M with 256 locals and 16 stack slots per method:
// main (no arguments, no result) with the given code, and for each
// non-nil entry of helpers a method M.<fn> that returns one value.
func fusedLink(t *testing.T, main func(b *classfile.Builder) []bytecode.Instr, helpers map[string][]bytecode.Instr) *Linked {
	t.Helper()
	b := classfile.NewBuilder("M", "")
	for _, f := range []string{"out", "arr", "g"} {
		b.AddField(f)
	}
	b.AddMethod("main", 0, 0, 256, 16, nil, bytecode.Encode(main(b)))
	for fn, code := range helpers {
		if code == nil {
			continue
		}
		b.AddMethod(fn, 0, 1, 256, 16, nil, bytecode.Encode(code))
	}
	p := &classfile.Program{Name: "fused", Classes: []*classfile.Class{b.Build()}, MainClass: "M"}
	ln, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// linkedOps links every body of ln and returns every op in its linked
// code.
func linkedOps(t *testing.T, ln *Linked) map[bytecode.Op]bool {
	t.Helper()
	if err := ln.Relink(); err != nil {
		t.Fatal(err)
	}
	ops := make(map[bytecode.Op]bool)
	for _, lm := range ln.methods {
		for _, in := range lm.code {
			ops[in.op] = true
		}
	}
	return ops
}

// allFused is one program that runs every fused case in turn, each in a
// method of its own, and HALTs.
func allFused(t *testing.T) *Linked {
	return fusedLink(t, func(b *classfile.Builder) []bytecode.Instr {
		var main []bytecode.Instr
		for i, c := range fusedCases {
			fn, name := fmt.Sprintf("f%d", i), fmt.Sprintf("c%d", i)
			if c.helper != nil {
				b.AddMethod(fn, 0, 1, 256, 16, nil, bytecode.Encode(c.helper))
			}
			b.AddMethod(name, 0, 0, 256, 16, nil, bytecode.Encode(append(c.code(b, fn), ins(bytecode.RETURN))))
			main = append(main, ins(bytecode.INVOKE, int32(b.MethodRef("M", name, 0, 0))))
		}
		return append(main, ins(bytecode.HALT))
	}, nil)
}

// TestFusedRuns runs every superinstruction on the edges of its operands
// and checks the result, and that the program linked to the
// superinstruction it is meant to test.
func TestFusedRuns(t *testing.T) {
	tested := make(map[bytecode.Op]bool)
	for _, c := range fusedCases {
		t.Run(c.name, func(t *testing.T) {
			ln := fusedLink(t, func(b *classfile.Builder) []bytecode.Instr {
				return append(c.code(b, "f"), ins(bytecode.HALT))
			}, map[string][]bytecode.Instr{"f": c.helper})
			if !linkedOps(t, ln)[c.op] {
				t.Fatalf("the code does not link to superinstruction %d", c.op)
			}
			tested[c.op] = true
			m, err := ln.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := out(t, m); got != c.out {
				t.Errorf("out = %d, want %d", got, c.out)
			}
		})
	}
	all := linkedOps(t, allFused(t))
	for op := xEnd + 1; op <= xLast; op++ {
		if !tested[op] {
			t.Errorf("superinstruction %d has no case", op)
		}
		if !all[op] {
			t.Errorf("superinstruction %d is missing from the program of every fused shape", op)
		}
	}
	// rawTraps holds a trap at each trapping member.
	trapped := make(map[bytecode.Op]bool)
	for _, tc := range rawTraps {
		for op := range linkedOps(t, rawLink(t, tc.methods...)) {
			trapped[op] = true
		}
	}
	for _, op := range []bytecode.Op{xLoadLoadArraylen, xLoadIaddAload, xGetstaticBipushAload, xAloadIfeq} {
		if !trapped[op] {
			t.Errorf("no raw trap runs superinstruction %d", op)
		}
	}
}

// TestPseudoOpsDense pins the numbering that keeps the interpreter's
// switch a jump table: the pseudo-ops follow HALT with no gap, and the
// superinstructions after xEnd are exactly the fusion table's, each with
// room for its operands.
func TestPseudoOpsDense(t *testing.T) {
	if xLdcInt != bytecode.HALT+1 {
		t.Errorf("xLdcInt = %d, want HALT+1 = %d", xLdcInt, bytecode.HALT+1)
	}
	for i, op := range []bytecode.Op{xLdcInt, xLdcStr, xInvokeU, xGetStaticU, xPutStaticU, xEnd} {
		if op != xLdcInt+bytecode.Op(i) {
			t.Errorf("pseudo-op %d numbered %d, want %d", i, op, xLdcInt+bytecode.Op(i))
		}
	}
	if int(xLast-xEnd) != len(fusions) {
		t.Errorf("%d superinstructions numbered, %d in the fusion table", xLast-xEnd, len(fusions))
	}
	for i, f := range fusions {
		if f.op != xEnd+1+bytecode.Op(i) {
			t.Errorf("fusion %d is op %d, want %d", i, f.op, xEnd+1+bytecode.Op(i))
		}
		var wide, narrow int
		for _, op := range f.run {
			switch operandOf(op) {
			case bytecode.OpndNone:
			case bytecode.OpndU8, bytecode.OpndS8:
				narrow++
			default:
				wide++
			}
		}
		if wide > 1 || wide+narrow > 3 || len(f.run) < 2 {
			t.Errorf("fusion %d: %d wide and %d narrow operands over %d ops", i, wide, narrow, len(f.run))
		}
		for j, g := range fusions[i+1:] {
			if len(g.run) > len(f.run) && slices.Equal(g.run[:len(f.run)], f.run) {
				t.Errorf("fusion %d is a prefix of fusion %d, listed after it", i, i+1+j)
			}
		}
	}
}

// TestArrayBudgetTraps pins what a run may allocate: one array of more
// than maxArrayLen slots traps at its NEWARRAY, and so does the first
// NEWARRAY or string constant that takes the run's arrays past
// maxRunSlots in total, though every earlier array is garbage by then.
func TestArrayBudgetTraps(t *testing.T) {
	const chunk = 1 << 20 // 8 MiB; maxRunSlots holds 256 of them
	for _, tc := range []struct {
		name string
		code func(b *classfile.Builder) []bytecode.Instr
		pc   int32
		msg  string
	}{
		{"one-array", func(b *classfile.Builder) []bytecode.Instr {
			return []bytecode.Instr{
				ins(bytecode.LDC, int32(b.Integer(maxArrayLen+1))), ins(bytecode.NEWARRAY), ins(bytecode.HALT),
			}
		}, 1, "newarray length 268435457 out of range"},
		{"newarray-in-total", func(b *classfile.Builder) []bytecode.Instr {
			return jumps(
				ins(bytecode.LDC, int32(b.Integer(chunk))), ins(bytecode.NEWARRAY), ins(bytecode.POP), ins(bytecode.GOTO, 0),
			)
		}, 1, "arrays exceed 268435456 slots in total"},
		{"string-in-total", func(b *classfile.Builder) []bytecode.Instr {
			return jumps(
				ins(bytecode.LDC, int32(b.Integer(chunk))), ins(bytecode.NEWARRAY), ins(bytecode.POP), // 0
				ins(bytecode.IINC, 0), ins(bytecode.LOAD, 0), ins(bytecode.SIPUSH, maxRunSlots/chunk), ins(bytecode.IFCMPLT, 0),
				ins(bytecode.LDC, int32(b.String("x"))), ins(bytecode.HALT), // 7
			)
		}, 7, "arrays exceed 268435456 slots in total"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := rawLink(t, rawMethod{"main", tc.code}).Run(Options{})
			var re *RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want a *RuntimeError", err)
			}
			want := RuntimeError{Method: classfile.Ref{Class: "M", Name: "main"}, PC: tc.pc, Msg: tc.msg}
			if *re != want {
				t.Errorf("trap %+v, want %+v", *re, want)
			}
		})
	}
}

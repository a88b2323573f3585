package vm

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
)

// The vocabulary of FuzzFusedBlock: the ops a block is built from (every
// member of a superinstruction's run that does not end a block), the ops
// that end it, the locals it touches (two of them above 127), the
// globals, and the integer constants LDC may load.
var (
	fuzzOps = []bytecode.Op{
		bytecode.LOAD, bytecode.STORE, bytecode.IINC, bytecode.BIPUSH, bytecode.SIPUSH, bytecode.LDC,
		bytecode.IADD, bytecode.ISUB, bytecode.IMUL, bytecode.IAND,
		bytecode.GETSTATIC, bytecode.PUTSTATIC, bytecode.NEWARRAY, bytecode.ALOAD, bytecode.ARRAYLEN,
	}
	fuzzEnds = []bytecode.Op{
		bytecode.IFCMPEQ, bytecode.IFCMPNE, bytecode.IFCMPLT, bytecode.IFCMPGE, bytecode.IFCMPGT, bytecode.IFCMPLE,
		bytecode.IFEQ, bytecode.GOTO,
	}
	fuzzLocals  = []int32{0, 1, 2, 3, 130, 255} // the first fuzzArgs are main's arguments
	fuzzGlobals = []string{"g0", "g1"}
	fuzzConsts  = []int64{0x70, -1, 1<<40 | 0xff, 255, 1 << 62}
)

const fuzzArgs = 4

// fuzzInstr is one instruction of a fuzzed block, its operand resolved
// to what it means: a local slot, an immediate, an index into
// fuzzGlobals, or a constant's value.
type fuzzInstr struct {
	op  bytecode.Op
	arg int64
}

// fuzzBlock turns fuzz bytes into a straight-line block over fuzzOps and
// the op that ends it: data[0] picks the end, data[1:5] main's four
// arguments, and each later pair of bytes an op and its operand. The
// operand stack stays between 0 and 16 deep, and NEWARRAY always takes
// a BIPUSH length, so no array is larger than 127 slots.
func fuzzBlock(data []byte) (args []int64, block []fuzzInstr) {
	if len(data) < 1+fuzzArgs {
		data = append(data, make([]byte, 1+fuzzArgs-len(data))...)
	}
	end := fuzzEnds[int(data[0])%len(fuzzEnds)]
	for _, b := range data[1 : 1+fuzzArgs] {
		args = append(args, int64(int8(b)))
	}
	depth := 0
	push := func(op bytecode.Op, arg int64) {
		block = append(block, fuzzInstr{op, arg})
		depth += op.Info().Push - op.Info().Pop
	}
	for i := 1 + fuzzArgs; i+1 < len(data) && len(block) < 64; i += 2 {
		op, b := fuzzOps[int(data[i])%len(fuzzOps)], data[i+1]
		pop, grows := op.Info().Pop, op.Info().Push > op.Info().Pop
		if op == bytecode.NEWARRAY {
			pop, grows = 0, true // with its length
		}
		switch {
		case depth < pop:
			op = bytecode.BIPUSH
		case depth >= 16 && grows:
			op = bytecode.STORE
		}
		switch op {
		case bytecode.LOAD, bytecode.STORE, bytecode.IINC:
			push(op, int64(fuzzLocals[int(b)%len(fuzzLocals)]))
		case bytecode.BIPUSH:
			push(op, int64(int8(b)))
		case bytecode.SIPUSH:
			push(op, int64(int8(b))*255)
		case bytecode.LDC:
			push(op, fuzzConsts[int(b)%len(fuzzConsts)])
		case bytecode.GETSTATIC, bytecode.PUTSTATIC:
			push(op, int64(int(b)%len(fuzzGlobals)))
		case bytecode.NEWARRAY:
			push(bytecode.BIPUSH, int64(int8(b))>>3) // -16..15: a few are negative
			push(op, 0)
		default:
			push(op, 0)
		}
	}
	for need := end.Info().Pop; depth < need; {
		push(bytecode.BIPUSH, int64(len(block)))
	}
	return args, append(block, fuzzInstr{end, 0})
}

// fuzzLink assembles the block into M.main, which takes args. Both ways
// out of the block copy every local in fuzzLocals to the global l<slot>;
// the branch's target also sets M.taken, and then HALTs.
func fuzzLink(t *testing.T, block []fuzzInstr) *Linked {
	b := classfile.NewBuilder("M", "")
	for _, g := range fuzzGlobals {
		b.AddField(g)
	}
	b.AddField("taken")
	for _, s := range fuzzLocals {
		b.AddField(fmt.Sprintf("l%d", s))
	}
	var code []bytecode.Instr
	for _, in := range block {
		arg := int32(in.arg)
		switch in.op {
		case bytecode.GETSTATIC, bytecode.PUTSTATIC:
			arg = int32(b.FieldRef("M", fuzzGlobals[in.arg]))
		case bytecode.LDC:
			arg = int32(b.Integer(in.arg))
		}
		code = append(code, ins(in.op, arg))
	}
	n := len(code) - 1
	exit := int32(n + 1)
	for _, s := range fuzzLocals {
		code = append(code, ins(bytecode.LOAD, s), ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", fmt.Sprintf("l%d", s)))))
	}
	code = append(code, ins(bytecode.HALT))
	code[n].Arg = int32(len(code))
	code = append(code, ins(bytecode.BIPUSH, 1), ins(bytecode.PUTSTATIC, int32(b.FieldRef("M", "taken"))), ins(bytecode.GOTO, exit))
	b.AddMethod("main", fuzzArgs, 0, 256, 32, nil, bytecode.Encode(jumps(code...)))
	ln, err := Link(&classfile.Program{Name: "fuzz", Classes: []*classfile.Class{b.Build()}, MainClass: "M"})
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// refRun evaluates a block one instruction at a time, as the unfused
// interpreter defines each op, and returns the locals and globals it
// leaves, whether the branch is taken, and the trap if one ends it.
func refRun(args []int64, block []fuzzInstr) (locals map[int32]slotv, globals []slotv, taken bool, trap *RuntimeError) {
	locals = make(map[int32]slotv)
	for i, a := range args {
		locals[int32(i)] = slotv{i: a}
	}
	globals = make([]slotv, len(fuzzGlobals))
	var stack []slotv
	pop := func() slotv {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	for pc, in := range block {
		fail := func(format string, a ...any) {
			trap = &RuntimeError{Method: classfile.Ref{Class: "M", Name: "main"}, PC: int32(pc), Msg: fmt.Sprintf(format, a...)}
		}
		switch in.op {
		case bytecode.LOAD:
			stack = append(stack, locals[int32(in.arg)])
		case bytecode.STORE:
			locals[int32(in.arg)] = pop()
		case bytecode.IINC:
			v := locals[int32(in.arg)]
			v.i++
			locals[int32(in.arg)] = v
		case bytecode.BIPUSH, bytecode.SIPUSH, bytecode.LDC:
			stack = append(stack, slotv{i: in.arg})
		case bytecode.IADD, bytecode.ISUB, bytecode.IMUL, bytecode.IAND:
			y, x := pop(), pop()
			switch in.op {
			case bytecode.IADD:
				x.i += y.i
			case bytecode.ISUB:
				x.i -= y.i
			case bytecode.IMUL:
				x.i *= y.i
			case bytecode.IAND:
				x.i &= y.i
			}
			stack = append(stack, x) // the integer half changes, an array stays
		case bytecode.GETSTATIC:
			stack = append(stack, globals[in.arg])
		case bytecode.PUTSTATIC:
			globals[in.arg] = pop()
		case bytecode.NEWARRAY:
			n := pop().i
			if n < 0 || n > maxArrayLen {
				fail("newarray length %d out of range", n)
				return
			}
			stack = append(stack, slotv{arr: make([]int64, n)})
		case bytecode.ALOAD:
			i, a := pop().i, pop().arr
			if a == nil {
				fail("aload on non-array")
				return
			}
			if i < 0 || i >= int64(len(a)) {
				fail("array index %d out of range [0,%d)", i, len(a))
				return
			}
			stack = append(stack, slotv{i: a[i]})
		case bytecode.ARRAYLEN:
			a := pop().arr
			if a == nil {
				fail("arraylen on non-array")
				return
			}
			stack = append(stack, slotv{i: int64(len(a))})
		case bytecode.IFEQ:
			taken = pop().i == 0
		case bytecode.GOTO:
			taken = true
		default: // IFCMPxx
			b, a := pop().i, pop().i
			taken = map[bytecode.Op]bool{
				bytecode.IFCMPEQ: a == b, bytecode.IFCMPNE: a != b, bytecode.IFCMPLT: a < b,
				bytecode.IFCMPGE: a >= b, bytecode.IFCMPGT: a > b, bytecode.IFCMPLE: a <= b,
			}[in.op]
		}
	}
	return locals, globals, taken, nil
}

// FuzzFusedBlock runs a fuzzed straight-line block, which the linker
// fuses wherever a superinstruction's run occurs, and checks it against
// refRun: the same trap (message and PC), or the same locals, globals
// and branch.
func FuzzFusedBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		args, block := fuzzBlock(data)
		ln := fuzzLink(t, block)
		m, err := ln.Run(Options{Args: args})
		locals, globals, taken, trap := refRun(args, block)

		var re *RuntimeError
		switch {
		case trap != nil && (!errors.As(err, &re) || *re != *trap):
			t.Fatalf("block %v: err %v, want trap %v", block, err, trap)
		case trap == nil && err != nil:
			t.Fatalf("block %v: %v", block, err)
		}
		want := func(field string, v slotv) {
			t.Helper()
			i, err := m.Global("M", field)
			if err != nil {
				t.Fatal(err)
			}
			a, err := m.GlobalArray("M", field)
			if err != nil {
				t.Fatal(err)
			}
			if i != v.i || !slices.Equal(a, v.arr) || (a == nil) != (v.arr == nil) {
				t.Errorf("block %v: %s = %d %v, want %d %v", block, field, i, a, v.i, v.arr)
			}
		}
		for g, v := range globals {
			want(fuzzGlobals[g], v)
		}
		if trap != nil {
			return
		}
		for _, s := range fuzzLocals {
			want(fmt.Sprintf("l%d", s), locals[s])
		}
		var tv slotv
		if taken {
			tv.i = 1
		}
		want("taken", tv)
	})
}

package bytecode

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func allOps() []Op {
	var ops []Op
	for op := Op(0); op < numOps; op++ {
		if op.Valid() {
			ops = append(ops, op)
		}
	}
	return ops
}

func TestOpTableComplete(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if !op.Valid() {
			t.Errorf("opcode %d has no table entry", byte(op))
		}
	}
	if Op(numOps).Valid() {
		t.Error("sentinel op reported valid")
	}
	if Op(255).Valid() {
		t.Error("op 255 reported valid")
	}
}

func TestOperandWidths(t *testing.T) {
	want := map[OperandKind]int{
		OpndNone: 0, OpndU8: 1, OpndS8: 1, OpndS16: 2, OpndCP: 2, OpndS32: 4,
	}
	for k, w := range want {
		if got := k.Width(); got != w {
			t.Errorf("kind %d width = %d, want %d", k, got, w)
		}
	}
}

func TestWidthMatchesEncoding(t *testing.T) {
	for _, op := range allOps() {
		in := Instr{Op: op, Arg: 1}
		code := AppendInstr(nil, in)
		if len(code) != op.Width() {
			t.Errorf("%v: encoded %d bytes, Width() = %d", op, len(code), op.Width())
		}
	}
}

// randArg picks a random in-range operand for op.
func randArg(r *rand.Rand, op Op) int32 {
	switch op.Info().Operand {
	case OpndNone:
		return 0
	case OpndU8:
		return int32(r.Intn(256))
	case OpndS8:
		return int32(r.Intn(256) - 128)
	case OpndS16:
		return int32(r.Intn(65536) - 32768)
	case OpndCP:
		return int32(r.Intn(65536))
	case OpndS32:
		return int32(r.Uint32())
	}
	panic("unreachable")
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ops := allOps()
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var in []Instr
		for i := 0; i < int(n)%64+1; i++ {
			op := ops[r.Intn(len(ops))]
			in = append(in, Instr{Op: op, Arg: randArg(r, op)})
		}
		code := Encode(in)
		out, err := Decode(code)
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				t.Logf("instr %d: %v != %v", i, in[i], out[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	code := Encode([]Instr{{Op: SIPUSH, Arg: 300}})
	for cut := 1; cut < len(code); cut++ {
		if _, err := Decode(code[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(code))
		}
	}
}

func TestDecodeBadOpcode(t *testing.T) {
	if _, err := Decode([]byte{250}); err == nil {
		t.Error("decode of opcode 250 succeeded")
	}
}

func TestDecodeAtBounds(t *testing.T) {
	code := Encode([]Instr{{Op: NOP}})
	if _, _, err := decodeAt(code, -1); err == nil {
		t.Error("decodeAt(-1) succeeded")
	}
	if _, _, err := decodeAt(code, len(code)); err == nil {
		t.Error("decodeAt(len) succeeded")
	}
}

func TestCount(t *testing.T) {
	in := []Instr{{Op: BIPUSH, Arg: 1}, {Op: BIPUSH, Arg: 2}, {Op: IADD}, {Op: IRETURN}}
	n, err := Count(Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("Count = %d, want 4", n)
	}
}

func TestAppendInstrRangeChecks(t *testing.T) {
	cases := []Instr{
		{Op: LOAD, Arg: 256},
		{Op: LOAD, Arg: -1},
		{Op: BIPUSH, Arg: 128},
		{Op: BIPUSH, Arg: -129},
		{Op: SIPUSH, Arg: math.MaxInt16 + 1},
		{Op: LDC, Arg: 65536},
	}
	for _, in := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendInstr(%v) did not panic", in)
				}
			}()
			AppendInstr(nil, in)
		}()
	}
}

func TestSignedOperandRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: BIPUSH, Arg: -128},
		{Op: BIPUSH, Arg: 127},
		{Op: SIPUSH, Arg: -32768},
		{Op: SIPUSH, Arg: 32767},
		{Op: IPUSH, Arg: math.MinInt32},
		{Op: IPUSH, Arg: math.MaxInt32},
		{Op: GOTO, Arg: -3},
	}
	for _, in := range cases {
		got, err := Decode(Encode([]Instr{in}))
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		if got[0] != in {
			t.Errorf("round trip %v -> %v", in, got[0])
		}
	}
}

func TestIsCompare(t *testing.T) {
	for _, op := range []Op{IFEQ, IFNE, IFLT, IFGE, IFGT, IFLE, IFCMPEQ, IFCMPNE, IFCMPLT, IFCMPGE, IFCMPGT, IFCMPLE} {
		if !op.IsCompare() {
			t.Errorf("%v.IsCompare() = false", op)
		}
	}
	for _, op := range []Op{GOTO, NOP, IADD, INVOKE, HALT} {
		if op.IsCompare() {
			t.Errorf("%v.IsCompare() = true", op)
		}
	}
}

func TestTerminalFlags(t *testing.T) {
	for _, op := range []Op{GOTO, RETURN, IRETURN, HALT} {
		if !op.Info().Terminal {
			t.Errorf("%v not terminal", op)
		}
	}
	for _, op := range []Op{IFEQ, INVOKE, IADD} {
		if op.Info().Terminal {
			t.Errorf("%v terminal", op)
		}
	}
}

// TestIndex: Index decodes what Decode decodes and marks exactly the
// instruction starts in its offset table — operand bytes and the end of
// the code are −1 — reusing the scratch it is given.
func TestIndex(t *testing.T) {
	code := Encode([]Instr{
		{Op: NOP},             // 0
		{Op: GOTO, Arg: 4},    // 1, operand bytes 2-3
		{Op: IPUSH, Arg: 1e6}, // 4, operand bytes 5-8
		{Op: LOAD, Arg: 2},    // 9, operand byte 10
		{Op: RETURN},          // 11
	})
	want, err := Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	instrs, at, err := Index(code, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(instrs) != len(want) {
		t.Fatalf("Index decoded %d instructions, Decode %d", len(instrs), len(want))
	}
	for i := range want {
		if instrs[i] != want[i] {
			t.Errorf("instruction %d: Index %v, Decode %v", i, instrs[i], want[i])
		}
	}
	wantAt := []int32{0, 1, -1, -1, 2, -1, -1, -1, -1, 3, -1, 4, -1}
	if len(at) != len(code)+1 {
		t.Fatalf("offset table has %d entries for %d code bytes, want len(code)+1", len(at), len(code))
	}
	for off, idx := range wantAt {
		if at[off] != idx {
			t.Errorf("at[%d] = %d, want %d", off, at[off], idx)
		}
	}

	// A shorter method through the same scratch: nothing of the longer
	// one may show through, and nothing is allocated.
	short := Encode([]Instr{{Op: BIPUSH, Arg: 1}, {Op: IRETURN}})
	allocs := testing.AllocsPerRun(10, func() {
		instrs, at, err = Index(short, instrs, at)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(instrs) != 2 || len(at) != 4 || at[0] != 0 || at[1] != -1 || at[2] != 1 || at[3] != -1 {
		t.Errorf("reused scratch: %d instructions, table %v", len(instrs), at)
	}
	if allocs != 0 {
		t.Errorf("Index into sufficient scratch: %.0f allocations, want 0", allocs)
	}

	// Malformed code fails as Decode fails and hands the scratch back.
	for _, bad := range [][]byte{{byte(SIPUSH), 0}, {250}} {
		_, derr := Decode(bad)
		var ierr error
		instrs, at, ierr = Index(bad, instrs, at)
		if ierr == nil || derr == nil || ierr.Error() != derr.Error() {
			t.Errorf("Index(% x) error %v, Decode error %v", bad, ierr, derr)
		}
		if cap(instrs) == 0 || cap(at) == 0 {
			t.Error("Index dropped the caller's scratch on error")
		}
	}
}

package vm

import "nonstrict/internal/bytecode"

// Superinstructions. The linker's last pass rewrites the first entry of
// each common run inside a basic block into a superinstruction that the
// interpreter executes in one dispatch, so the loop pays one fetch and
// one indirect jump for the run instead of one per instruction. The set
// is the runs that the six apps execute most (each covers at least 0.5 %
// of their dynamic instructions), about 0.6 dispatches per instruction.
//
// Nothing else about the code changes. The run's later entries stay in
// place with their own op, operand and width, and the superinstruction
// steps the pc past them; so instruction indices, branch targets, block
// leaders and lengths, the widths coverage sums, and the xEnd sentinel
// are what they would be without fusion, and the live linker's in-place
// patching still finds every unresolved op where it was. Only a run's
// first entry may be a block leader, and no entry may be an unresolved
// xU op, so a run executes to its end once entered unless a member
// traps. A superinstruction with a trapping member moves the pc to that
// member before it traps, so the trap's PC and the step-budget tie are
// those of the member.
//
// The operands ride in the first entry. A wide operand (a branch target,
// global slot, constant index or SIPUSH immediate; a run has at most
// one) goes in a, the narrow ones (local slots and BIPUSH immediates) in
// nargs and nret in run order; a run with no wide operand puts its first
// narrow one in a. A local slot reads back as uint8 and a BIPUSH
// immediate as int8. The table lists a run before any run that is a
// prefix of it, so that the longest one applies.
var fusions = [...]struct {
	op  bytecode.Op
	run []bytecode.Op
}{
	{xLoadBipushIfcmpne, []bytecode.Op{bytecode.LOAD, bytecode.BIPUSH, bytecode.IFCMPNE}},
	{xLoadBipushIfcmpge, []bytecode.Op{bytecode.LOAD, bytecode.BIPUSH, bytecode.IFCMPGE}},
	{xLoadLoadIfcmpge, []bytecode.Op{bytecode.LOAD, bytecode.LOAD, bytecode.IFCMPGE}},
	{xLoadLoadArraylen, []bytecode.Op{bytecode.LOAD, bytecode.LOAD, bytecode.ARRAYLEN}},
	{xLoadLoad, []bytecode.Op{bytecode.LOAD, bytecode.LOAD}},
	{xLoadIaddAload, []bytecode.Op{bytecode.LOAD, bytecode.IADD, bytecode.ALOAD}},
	{xLoadIadd, []bytecode.Op{bytecode.LOAD, bytecode.IADD}},
	{xLoadSipushImul, []bytecode.Op{bytecode.LOAD, bytecode.SIPUSH, bytecode.IMUL}},
	{xLoadIreturn, []bytecode.Op{bytecode.LOAD, bytecode.IRETURN}},
	{xStoreLoadLoad, []bytecode.Op{bytecode.STORE, bytecode.LOAD, bytecode.LOAD}},
	{xStoreLoad, []bytecode.Op{bytecode.STORE, bytecode.LOAD}},
	{xIincGoto, []bytecode.Op{bytecode.IINC, bytecode.GOTO}},
	{xGetstaticBipushAload, []bytecode.Op{bytecode.GETSTATIC, bytecode.BIPUSH, bytecode.ALOAD}},
	{xGetstaticBipushImul, []bytecode.Op{bytecode.GETSTATIC, bytecode.BIPUSH, bytecode.IMUL}},
	{xGetstaticBipush, []bytecode.Op{bytecode.GETSTATIC, bytecode.BIPUSH}},
	{xGetstaticLoad, []bytecode.Op{bytecode.GETSTATIC, bytecode.LOAD}},
	{xLdcIntIand, []bytecode.Op{xLdcInt, bytecode.IAND}},
	{xIaddLdcIntIand, []bytecode.Op{bytecode.IADD, xLdcInt, bytecode.IAND}},
	{xBipushIand, []bytecode.Op{bytecode.BIPUSH, bytecode.IAND}},
	{xBipushIadd, []bytecode.Op{bytecode.BIPUSH, bytecode.IADD}},
	{xBipushIreturn, []bytecode.Op{bytecode.BIPUSH, bytecode.IRETURN}},
	{xAloadIfeq, []bytecode.Op{bytecode.ALOAD, bytecode.IFEQ}},
}

// fuseFrom lists, per opcode, the fusions whose run starts with it, in
// table order.
var fuseFrom [256][]uint8

func init() {
	for i, f := range fusions {
		fuseFrom[f.run[0]] = append(fuseFrom[f.run[0]], uint8(i))
	}
}

// fuse rewrites every run in code that a superinstruction covers, left
// to right, the longest run first at each position.
func fuse(code []linkedInstr) {
	for i := 0; i < len(code); {
		i += fuseAt(code, i)
	}
}

// fuseAt rewrites code[i] into the superinstruction of the longest run
// that starts there, if one does, and returns the number of entries it
// covers (1 when none does).
func fuseAt(code []linkedInstr, i int) int {
	for _, f := range fuseFrom[code[i].op] {
		run := fusions[f].run
		if !runAt(code[i:], run) {
			continue
		}
		first := &code[i]
		var narrow [3]int32
		nn, wide, hasWide := 0, int32(0), false
		for j, op := range run {
			switch operandOf(op) {
			case bytecode.OpndU8, bytecode.OpndS8:
				narrow[nn] = code[i+j].a
				nn++
			case bytecode.OpndNone:
			default:
				wide, hasWide = code[i+j].a, true
			}
		}
		if !hasWide {
			wide, narrow = narrow[0], [3]int32{narrow[1], narrow[2]}
		}
		first.op, first.a = fusions[f].op, wide
		first.nargs, first.nret = int8(narrow[0]), int8(narrow[1])
		return len(run)
	}
	return 1
}

// runAt reports whether code starts with run, its later entries inside
// the first one's block.
func runAt(code []linkedInstr, run []bytecode.Op) bool {
	if len(code) < len(run) {
		return false
	}
	for j, op := range run {
		if code[j].op != op || j > 0 && code[j].blk != 0 {
			return false
		}
	}
	return true
}

// operandOf returns the operand kind of a run member; xLdcInt's constant
// index is wide.
func operandOf(op bytecode.Op) bytecode.OperandKind {
	if op == xLdcInt {
		return bytecode.OpndCP
	}
	return op.Info().Operand
}

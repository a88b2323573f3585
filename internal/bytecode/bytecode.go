// Package bytecode defines the stack-machine instruction set used by the
// non-strict execution substrate.
//
// The ISA is a compact, JVM-flavoured stack bytecode: instructions are a
// one-byte opcode followed by zero or one operand whose width depends on
// the opcode. Branch offsets are signed 16-bit displacements relative to
// the first byte of the branch instruction, exactly as in JVM class files.
// Values are 64-bit integers or array references; locals and the operand
// stack are untyped slots.
//
// The package provides the opcode table with per-opcode metadata (operand
// kind, stack effect), an assembler-level encoder, a decoder/iterator, and
// a disassembler. Everything above (compiler, VM, verifier, CFG analysis)
// is driven by the metadata table so the ISA can be extended in one place.
package bytecode

import "fmt"

// Op is a bytecode opcode.
type Op byte

// The instruction set.
const (
	NOP Op = iota

	// Constants.
	BIPUSH // push signed 8-bit immediate
	SIPUSH // push signed 16-bit immediate
	IPUSH  // push signed 32-bit immediate
	LDC    // push constant-pool entry (Integer or String handle), u16 index

	// Locals.
	LOAD  // push local slot, u8 index
	STORE // pop into local slot, u8 index
	IINC  // increment local slot by 1 (u8 index); common loop idiom

	// Arithmetic and logic (pop two, push one unless noted).
	IADD
	ISUB
	IMUL
	IDIV
	IREM
	INEG // pop one, push one
	IAND
	IOR
	IXOR
	ISHL
	ISHR

	// Stack manipulation.
	DUP
	POP
	SWAP

	// Unary conditional branches: pop v, compare v with 0, s16 offset.
	IFEQ
	IFNE
	IFLT
	IFGE
	IFGT
	IFLE

	// Binary conditional branches: pop b, pop a, compare a with b, s16.
	IFCMPEQ
	IFCMPNE
	IFCMPLT
	IFCMPGE
	IFCMPGT
	IFCMPLE

	GOTO // unconditional, s16 offset

	// Calls. INVOKE names a MethodRef constant-pool entry (u16); the
	// callee's arity and result arity come from its descriptor.
	INVOKE
	RETURN  // return void
	IRETURN // return one value

	// Static (global) fields, via FieldRef constant-pool entries (u16).
	GETSTATIC
	PUTSTATIC

	// Arrays of 64-bit integers.
	NEWARRAY // pop length, push reference
	ALOAD    // pop index, pop ref, push element
	ASTORE   // pop value, pop index, pop ref
	ARRAYLEN // pop ref, push length

	HALT // stop the machine (only valid in the entry method)

	numOps // sentinel
)

// OperandKind describes the encoding of an instruction's operand.
type OperandKind byte

const (
	OpndNone OperandKind = iota
	OpndU8               // unsigned 8-bit (local slot)
	OpndS8               // signed 8-bit immediate
	OpndS16              // signed 16-bit immediate or branch offset
	OpndS32              // signed 32-bit immediate
	OpndCP               // unsigned 16-bit constant-pool index
)

// Width returns the operand's encoded size in bytes.
func (k OperandKind) Width() int {
	switch k {
	case OpndNone:
		return 0
	case OpndU8, OpndS8:
		return 1
	case OpndS16, OpndCP:
		return 2
	case OpndS32:
		return 4
	}
	panic(fmt.Sprintf("bytecode: bad operand kind %d", k))
}

// Info is the static description of an opcode.
type Info struct {
	Name    string
	Operand OperandKind
	// Pop and Push give the net operand-stack effect. For INVOKE they
	// are placeholders (-1); the verifier consults the callee descriptor.
	Pop, Push int
	// Branch reports whether the operand is a control-flow displacement.
	Branch bool
	// Terminal reports whether control never falls through (GOTO,
	// RETURN, IRETURN, HALT).
	Terminal bool
}

var infos = [numOps]Info{
	NOP:    {Name: "nop"},
	BIPUSH: {Name: "bipush", Operand: OpndS8, Push: 1},
	SIPUSH: {Name: "sipush", Operand: OpndS16, Push: 1},
	IPUSH:  {Name: "ipush", Operand: OpndS32, Push: 1},
	LDC:    {Name: "ldc", Operand: OpndCP, Push: 1},
	LOAD:   {Name: "load", Operand: OpndU8, Push: 1},
	STORE:  {Name: "store", Operand: OpndU8, Pop: 1},
	IINC:   {Name: "iinc", Operand: OpndU8},
	IADD:   {Name: "iadd", Pop: 2, Push: 1},
	ISUB:   {Name: "isub", Pop: 2, Push: 1},
	IMUL:   {Name: "imul", Pop: 2, Push: 1},
	IDIV:   {Name: "idiv", Pop: 2, Push: 1},
	IREM:   {Name: "irem", Pop: 2, Push: 1},
	INEG:   {Name: "ineg", Pop: 1, Push: 1},
	IAND:   {Name: "iand", Pop: 2, Push: 1},
	IOR:    {Name: "ior", Pop: 2, Push: 1},
	IXOR:   {Name: "ixor", Pop: 2, Push: 1},
	ISHL:   {Name: "ishl", Pop: 2, Push: 1},
	ISHR:   {Name: "ishr", Pop: 2, Push: 1},
	DUP:    {Name: "dup", Pop: 1, Push: 2},
	POP:    {Name: "pop", Pop: 1},
	SWAP:   {Name: "swap", Pop: 2, Push: 2},

	IFEQ: {Name: "ifeq", Operand: OpndS16, Pop: 1, Branch: true},
	IFNE: {Name: "ifne", Operand: OpndS16, Pop: 1, Branch: true},
	IFLT: {Name: "iflt", Operand: OpndS16, Pop: 1, Branch: true},
	IFGE: {Name: "ifge", Operand: OpndS16, Pop: 1, Branch: true},
	IFGT: {Name: "ifgt", Operand: OpndS16, Pop: 1, Branch: true},
	IFLE: {Name: "ifle", Operand: OpndS16, Pop: 1, Branch: true},

	IFCMPEQ: {Name: "ifcmpeq", Operand: OpndS16, Pop: 2, Branch: true},
	IFCMPNE: {Name: "ifcmpne", Operand: OpndS16, Pop: 2, Branch: true},
	IFCMPLT: {Name: "ifcmplt", Operand: OpndS16, Pop: 2, Branch: true},
	IFCMPGE: {Name: "ifcmpge", Operand: OpndS16, Pop: 2, Branch: true},
	IFCMPGT: {Name: "ifcmpgt", Operand: OpndS16, Pop: 2, Branch: true},
	IFCMPLE: {Name: "ifcmple", Operand: OpndS16, Pop: 2, Branch: true},

	GOTO: {Name: "goto", Operand: OpndS16, Branch: true, Terminal: true},

	INVOKE:  {Name: "invoke", Operand: OpndCP, Pop: -1, Push: -1},
	RETURN:  {Name: "return", Terminal: true},
	IRETURN: {Name: "ireturn", Pop: 1, Terminal: true},

	GETSTATIC: {Name: "getstatic", Operand: OpndCP, Push: 1},
	PUTSTATIC: {Name: "putstatic", Operand: OpndCP, Pop: 1},

	NEWARRAY: {Name: "newarray", Pop: 1, Push: 1},
	ALOAD:    {Name: "aload", Pop: 2, Push: 1},
	ASTORE:   {Name: "astore", Pop: 3},
	ARRAYLEN: {Name: "arraylen", Pop: 1, Push: 1},

	HALT: {Name: "halt", Terminal: true},
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < numOps && infos[op].Name != "" }

// Info returns the static description of op. It panics on an undefined
// opcode; use Valid first when decoding untrusted input.
func (op Op) Info() Info {
	if !op.Valid() {
		panic(invalidOp(op))
	}
	return infos[op]
}

// invalidOp is the panic value of Info and Width on an undefined opcode.
// It stays out of line so that Width inlines.
//
//go:noinline
func invalidOp(op Op) string { return fmt.Sprintf("bytecode: invalid opcode %d", byte(op)) }

// String returns the mnemonic of op.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", byte(op))
	}
	return infos[op].Name
}

// widths is Width's table: the encoded size of each defined opcode, and
// 0 for every byte that is not one, so Width is one load and a branch.
var widths = func() (w [256]uint8) {
	for op := Op(0); op < numOps; op++ {
		if op.Valid() {
			w[op] = uint8(1 + infos[op].Operand.Width())
		}
	}
	return w
}()

// Width returns the encoded size of an instruction with opcode op,
// including the opcode byte itself. It panics on an undefined opcode,
// as Info does.
func (op Op) Width() int {
	if w := widths[op]; w != 0 {
		return int(w)
	}
	panic(invalidOp(op))
}

// IsCompare reports whether op is one of the twelve conditional branches.
func (op Op) IsCompare() bool { return op >= IFEQ && op <= IFCMPLE }

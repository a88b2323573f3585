package bytecode

import (
	"errors"
	"fmt"
	"slices"
)

// Instr is one decoded instruction. Arg holds the operand value: an
// immediate, a local slot, a constant-pool index, or a branch displacement
// (relative to the instruction's first byte), depending on the opcode.
type Instr struct {
	Op  Op
	Arg int32
}

// String returns an assembler-style rendering such as "sipush 300".
func (in Instr) String() string {
	if in.Op.Info().Operand == OpndNone {
		return in.Op.String()
	}
	return fmt.Sprintf("%s %d", in.Op, in.Arg)
}

// Width returns the encoded size of the instruction in bytes.
func (in Instr) Width() int { return in.Op.Width() }

// AppendInstr appends the encoding of in to code and returns the extended
// slice. It panics if the operand does not fit its encoding; the compiler
// guarantees ranges, and hand-written tests exercise the panic.
func AppendInstr(code []byte, in Instr) []byte {
	code = append(code, byte(in.Op))
	switch k := in.Op.Info().Operand; k {
	case OpndNone:
	case OpndU8:
		if in.Arg < 0 || in.Arg > 255 {
			panic(fmt.Sprintf("bytecode: %s operand %d out of u8 range", in.Op, in.Arg))
		}
		code = append(code, byte(in.Arg))
	case OpndS8:
		if in.Arg < -128 || in.Arg > 127 {
			panic(fmt.Sprintf("bytecode: %s operand %d out of s8 range", in.Op, in.Arg))
		}
		code = append(code, byte(int8(in.Arg)))
	case OpndS16:
		if in.Arg < -32768 || in.Arg > 32767 {
			panic(fmt.Sprintf("bytecode: %s operand %d out of s16 range", in.Op, in.Arg))
		}
		code = append(code, byte(uint16(in.Arg)>>8), byte(uint16(in.Arg)))
	case OpndCP:
		if in.Arg < 0 || in.Arg > 65535 {
			panic(fmt.Sprintf("bytecode: %s operand %d out of u16 range", in.Op, in.Arg))
		}
		code = append(code, byte(uint16(in.Arg)>>8), byte(uint16(in.Arg)))
	case OpndS32:
		code = append(code,
			byte(uint32(in.Arg)>>24), byte(uint32(in.Arg)>>16),
			byte(uint32(in.Arg)>>8), byte(uint32(in.Arg)))
	default:
		panic(fmt.Sprintf("bytecode: bad operand kind %d", k))
	}
	return code
}

// ErrTruncated is returned when a code stream ends inside an instruction.
var ErrTruncated = errors.New("bytecode: truncated instruction")

// ErrBadOpcode is returned when a code stream contains an undefined opcode.
var ErrBadOpcode = errors.New("bytecode: undefined opcode")

// decodeAt decodes the instruction starting at pc. It returns the
// instruction and the pc of the next instruction.
func decodeAt(code []byte, pc int) (Instr, int, error) {
	if pc < 0 || pc >= len(code) {
		return Instr{}, 0, ErrTruncated
	}
	op := Op(code[pc])
	if !op.Valid() {
		return Instr{}, 0, fmt.Errorf("%w: %d at pc %d", ErrBadOpcode, code[pc], pc)
	}
	k := infos[op].Operand
	end := pc + op.Width()
	if end > len(code) {
		return Instr{}, 0, fmt.Errorf("%w: %s at pc %d", ErrTruncated, op, pc)
	}
	var arg int32
	switch k {
	case OpndNone:
	case OpndU8:
		arg = int32(code[pc+1])
	case OpndS8:
		arg = int32(int8(code[pc+1]))
	case OpndS16:
		arg = int32(int16(uint16(code[pc+1])<<8 | uint16(code[pc+2])))
	case OpndCP:
		arg = int32(uint16(code[pc+1])<<8 | uint16(code[pc+2]))
	case OpndS32:
		arg = int32(uint32(code[pc+1])<<24 | uint32(code[pc+2])<<16 |
			uint32(code[pc+3])<<8 | uint32(code[pc+4]))
	}
	return Instr{Op: op, Arg: arg}, end, nil
}

// Decode decodes an entire code stream. It fails on truncation or
// undefined opcodes but performs no control-flow validation (that is the
// verifier's job).
func Decode(code []byte) ([]Instr, error) {
	n, err := Count(code)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]Instr, 0, n)
	for pc := 0; pc < len(code); {
		in, next, _ := decodeAt(code, pc) // Count proved the stream decodes
		out = append(out, in)
		pc = next
	}
	return out, nil
}

// Index decodes an entire code stream like Decode and also builds the
// byte-offset → instruction-index table every consumer of branch
// displacements needs: at has len(code)+1 entries, at[off] is the index
// of the instruction whose first byte is off, and −1 marks operand bytes
// and the end of the code. A displacement is a valid branch target
// exactly when it lands in [0, len(at)) on an entry ≥ 0.
//
// Both results reuse the capacity of the slices passed in (nil is fine),
// so a caller that indexes many methods keeps them as scratch; on error
// the scratch is handed back unchanged in length-zero form.
func Index(code []byte, instrs []Instr, at []int32) ([]Instr, []int32, error) {
	instrs, at = instrs[:0], at[:0]
	n, err := Count(code)
	if err != nil {
		return instrs, at, err
	}
	instrs = slices.Grow(instrs, n)
	at = slices.Grow(at, len(code)+1)[:len(code)+1]
	for i := range at {
		at[i] = -1
	}
	for pc := 0; pc < len(code); {
		in, next, _ := decodeAt(code, pc) // Count proved the stream decodes
		at[pc] = int32(len(instrs))
		instrs = append(instrs, in)
		pc = next
	}
	return instrs, at, nil
}

// Encode encodes a sequence of instructions.
func Encode(instrs []Instr) []byte {
	var code []byte
	for _, in := range instrs {
		code = AppendInstr(code, in)
	}
	return code
}

// Count returns the number of instructions in the encoded stream, or an
// error if the stream is malformed.
func Count(code []byte) (int, error) {
	n := 0
	for pc := 0; pc < len(code); {
		_, next, err := decodeAt(code, pc)
		if err != nil {
			return 0, err
		}
		n++
		pc = next
	}
	return n, nil
}

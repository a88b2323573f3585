package jir

import (
	"fmt"
	"hash/fnv"
	"math"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
)

// Compile lowers the IR program to classfiles. It checks call arity and
// local-variable discipline, selects the smallest constant encodings
// (BIPUSH/SIPUSH, falling back to LDC pool entries for wide constants),
// fuses relational operators into conditional branches, and computes
// MaxStack/MaxLocals for each method.
func Compile(p *Program) (*classfile.Program, error) {
	nfuncs := 0
	for _, c := range p.Classes {
		nfuncs += len(c.Funcs)
	}
	syms := make(map[classfile.Ref]*Func, nfuncs)
	for _, c := range p.Classes {
		for _, f := range c.Funcs {
			r := classfile.Ref{Class: c.Name, Name: f.Name}
			if _, dup := syms[r]; dup {
				return nil, fmt.Errorf("jir: duplicate function %v", r)
			}
			syms[r] = f
		}
	}
	mainRef := classfile.Ref{Class: p.Main, Name: "main"}
	if _, ok := syms[mainRef]; !ok {
		return nil, fmt.Errorf("jir: program %q has no %v", p.Name, mainRef)
	}

	out := &classfile.Program{Name: p.Name, MainClass: p.Main, Classes: make([]*classfile.Class, 0, len(p.Classes))}
	e := &emitter{prog: p, syms: syms, locals: make(map[string]int)}
	// One constant-pool builder for the whole compile; it is this
	// call's scratch, so concurrent compiles share nothing.
	b := new(classfile.Builder)
	for _, c := range p.Classes {
		b.Reset(c.Name, c.Super)
		for _, ifc := range c.Interfaces {
			b.AddInterface(ifc)
		}
		for _, fld := range c.Fields {
			b.AddField(fld)
		}
		for _, a := range c.Attrs {
			b.AddAttribute(a.Name, a.Data)
		}
		for _, f := range c.Funcs {
			if err := e.compileFunc(c, f, b); err != nil {
				return nil, fmt.Errorf("jir: %s.%s: %w", c.Name, f.Name, err)
			}
		}
		// Unused pool entries go in last; position in the pool does not
		// affect any analysis, and this keeps live indices compact.
		for _, s := range c.UnusedStrings {
			b.String(s)
		}
		for _, v := range c.UnusedInts {
			b.Integer(v)
		}
		out.Classes = append(out.Classes, b.Build())
	}
	return out, nil
}

// pinstr is a pre-resolution instruction: either a concrete instruction
// or a branch to a label.
type pinstr struct {
	op    bytecode.Op
	arg   int32
	label int32 // branch target label, or -1
}

const noLabel = -1

// emitter compiles one function at a time. Compile makes one per call
// and resets it between functions, so the per-function tables below
// keep their backing arrays for the whole program: what a function
// leaves behind is one slice holding its local data and code.
type emitter struct {
	prog *Program
	cls  *Class
	fn   *Func
	b    *classfile.Builder
	syms map[classfile.Ref]*Func

	locals map[string]int

	ins      []pinstr
	labelPos []int // label -> instruction index (-1 until placed)
	offsets  []int // resolve's instruction -> byte offset

	depth      int
	maxDepth   int
	labelDepth []int // stack depth at label entry (-1 unknown)
	reachable  bool
}

func (e *emitter) compileFunc(c *Class, f *Func, b *classfile.Builder) error {
	e.cls, e.fn, e.b = c, f, b
	clear(e.locals)
	e.ins, e.labelPos, e.labelDepth = e.ins[:0], e.labelPos[:0], e.labelDepth[:0]
	e.depth, e.maxDepth, e.reachable = 0, 0, true
	for _, prm := range f.Params {
		if _, dup := e.locals[prm]; dup {
			return fmt.Errorf("duplicate parameter %q", prm)
		}
		e.locals[prm] = len(e.locals)
	}
	if err := e.stmts(f.Body); err != nil {
		return err
	}
	// Guarantee the method cannot fall off the end.
	if e.reachable {
		if f.NRet != 0 {
			return fmt.Errorf("control may reach end of value-returning function")
		}
		e.emit(bytecode.RETURN)
	}
	// The local data and the code share the method's one allocation.
	nLocal := max(f.LocalData, 0)
	buf, err := e.resolve(nLocal)
	if err != nil {
		return err
	}
	if len(e.locals) > math.MaxUint8+1 {
		return fmt.Errorf("too many locals: %d", len(e.locals))
	}
	var local []byte
	if nLocal > 0 {
		local = buf[:nLocal:nLocal]
		fillLocalData(local, c.Name, f.Name)
	}
	b.AddMethod(f.Name, len(f.Params), f.NRet, len(e.locals), e.maxDepth, local, buf[nLocal:])
	return nil
}

// fillLocalData fills blob with the method's deterministic opaque local
// data.
func fillLocalData(blob []byte, class, fn string) {
	h := fnv.New64a()
	h.Write([]byte(class))
	h.Write([]byte{0})
	h.Write([]byte(fn))
	s := h.Sum64()
	for i := range blob {
		// xorshift64 keeps the blob cheap and reproducible.
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		blob[i] = byte(s)
	}
}

func (e *emitter) newLabel() int32 {
	e.labelPos = append(e.labelPos, -1)
	e.labelDepth = append(e.labelDepth, -1)
	return int32(len(e.labelPos) - 1)
}

func (e *emitter) place(l int32) error {
	e.labelPos[l] = len(e.ins)
	if e.labelDepth[l] >= 0 {
		if e.reachable && e.depth != e.labelDepth[l] {
			return fmt.Errorf("stack depth mismatch at join: %d vs %d", e.depth, e.labelDepth[l])
		}
		e.depth = e.labelDepth[l]
	} else if e.reachable {
		e.labelDepth[l] = e.depth
	} else {
		return fmt.Errorf("label placed at unreachable point with unknown depth")
	}
	e.reachable = true
	return nil
}

func (e *emitter) track(pop, push int) {
	e.depth -= pop
	if e.depth < 0 {
		panic(fmt.Sprintf("jir: internal: stack underflow emitting %s.%s", e.cls.Name, e.fn.Name))
	}
	e.depth += push
	if e.depth > e.maxDepth {
		e.maxDepth = e.depth
	}
}

func (e *emitter) emit(op bytecode.Op) {
	info := op.Info()
	e.track(info.Pop, info.Push)
	e.ins = append(e.ins, pinstr{op: op, label: noLabel})
	if info.Terminal {
		e.reachable = false
	}
}

func (e *emitter) emitArg(op bytecode.Op, arg int32) {
	info := op.Info()
	e.track(info.Pop, info.Push)
	e.ins = append(e.ins, pinstr{op: op, arg: arg, label: noLabel})
}

func (e *emitter) emitInvoke(cp uint16, nargs, nret int) {
	e.track(nargs, nret)
	e.ins = append(e.ins, pinstr{op: bytecode.INVOKE, arg: int32(cp), label: noLabel})
}

func (e *emitter) emitBranch(op bytecode.Op, l int32) {
	info := op.Info()
	e.track(info.Pop, info.Push)
	if d := e.labelDepth[l]; d >= 0 && d != e.depth {
		panic(fmt.Sprintf("jir: internal: branch depth mismatch to label %d: %d vs %d", l, e.depth, d))
	}
	e.labelDepth[l] = e.depth
	e.ins = append(e.ins, pinstr{op: op, label: l})
	if info.Terminal {
		e.reachable = false
	}
}

// resolve lays out instructions, fixes branch displacements, and encodes
// them after room bytes left for the caller, into one slice of exactly
// that size: the only allocation it makes.
func (e *emitter) resolve(room int) ([]byte, error) {
	offsets := e.offsets[:0]
	off := 0
	for _, in := range e.ins {
		offsets = append(offsets, off)
		off += in.op.Width()
	}
	offsets = append(offsets, off)
	e.offsets = offsets

	code := make([]byte, room, room+off)
	for i, in := range e.ins {
		arg := in.arg
		if in.label != noLabel {
			pos := e.labelPos[in.label]
			if pos < 0 {
				return nil, fmt.Errorf("unplaced label %d", in.label)
			}
			disp := offsets[pos] - offsets[i]
			if disp < math.MinInt16 || disp > math.MaxInt16 {
				return nil, fmt.Errorf("branch displacement %d exceeds s16 (method too large)", disp)
			}
			arg = int32(disp)
		}
		code = bytecode.AppendInstr(code, bytecode.Instr{Op: in.op, Arg: arg})
	}
	return code, nil
}

func (e *emitter) localSlot(name string, declare bool) (int, error) {
	if s, ok := e.locals[name]; ok {
		return s, nil
	}
	if !declare {
		return 0, fmt.Errorf("use of undeclared local %q", name)
	}
	s := len(e.locals)
	e.locals[name] = s
	return s, nil
}

func (e *emitter) stmts(ss []Stmt) error {
	for _, s := range ss {
		if err := e.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitter) stmt(s Stmt) error {
	if !e.reachable {
		return fmt.Errorf("unreachable statement %T", s)
	}
	switch s := s.(type) {
	case LetStmt:
		if err := e.expr(s.E); err != nil {
			return err
		}
		slot, err := e.localSlot(s.Name, true)
		if err != nil {
			return err
		}
		e.emitArg(bytecode.STORE, int32(slot))
		return nil

	case SetGlobalStmt:
		if err := e.expr(s.E); err != nil {
			return err
		}
		if err := e.checkField(s.Class, s.Field); err != nil {
			return err
		}
		e.emitArg(bytecode.PUTSTATIC, int32(e.b.FieldRef(s.Class, s.Field)))
		return nil

	case SetIndexStmt:
		if err := e.expr(s.Arr); err != nil {
			return err
		}
		if err := e.expr(s.I); err != nil {
			return err
		}
		if err := e.expr(s.V); err != nil {
			return err
		}
		e.emit(bytecode.ASTORE)
		return nil

	case IfStmt:
		elseL := e.newLabel()
		if err := e.branchFalse(s.Cond, elseL); err != nil {
			return err
		}
		if err := e.stmts(s.Then); err != nil {
			return err
		}
		if len(s.Else) == 0 {
			if e.reachable {
				// Fall through to the else label.
			}
			return e.place(elseL)
		}
		endL := e.newLabel()
		if e.reachable {
			e.emitBranch(bytecode.GOTO, endL)
		}
		if err := e.place(elseL); err != nil {
			return err
		}
		if err := e.stmts(s.Else); err != nil {
			return err
		}
		if !e.reachable && e.labelDepth[endL] < 0 {
			// Both arms terminated; nothing joins at endL. Drop it by
			// placing it with the depth recorded at the GOTO, if any.
			e.labelPos[endL] = len(e.ins)
			e.reachable = false
			if e.labelDepth[endL] >= 0 {
				e.depth = e.labelDepth[endL]
				e.reachable = true
			}
			return nil
		}
		return e.place(endL)

	case WhileStmt:
		headL := e.newLabel()
		endL := e.newLabel()
		if err := e.place(headL); err != nil {
			return err
		}
		if err := e.branchFalse(s.Cond, endL); err != nil {
			return err
		}
		if err := e.stmts(s.Body); err != nil {
			return err
		}
		if e.reachable {
			e.emitBranch(bytecode.GOTO, headL)
		}
		return e.place(endL)

	case ForStmt:
		if s.Init != nil {
			if err := e.stmt(s.Init); err != nil {
				return err
			}
		}
		headL := e.newLabel()
		endL := e.newLabel()
		if err := e.place(headL); err != nil {
			return err
		}
		if s.Cond != nil {
			if err := e.branchFalse(s.Cond, endL); err != nil {
				return err
			}
		}
		if err := e.stmts(s.Body); err != nil {
			return err
		}
		if e.reachable {
			if s.Post != nil {
				if err := e.stmt(s.Post); err != nil {
					return err
				}
			}
			e.emitBranch(bytecode.GOTO, headL)
		}
		if s.Cond == nil && e.labelDepth[endL] < 0 {
			// Infinite loop with no break path: endL is unreachable.
			e.labelPos[endL] = len(e.ins)
			e.reachable = false
			return nil
		}
		return e.place(endL)

	case RetStmt:
		if s.E == nil {
			if e.fn.NRet != 0 {
				return fmt.Errorf("bare return in value-returning function")
			}
			e.emit(bytecode.RETURN)
			return nil
		}
		if e.fn.NRet != 1 {
			return fmt.Errorf("value return in void function")
		}
		if err := e.expr(s.E); err != nil {
			return err
		}
		e.emit(bytecode.IRETURN)
		return nil

	case DoStmt:
		call, ok := s.E.(CallExpr)
		if !ok {
			return fmt.Errorf("Do requires a call expression, got %T", s.E)
		}
		nret, err := e.call(call)
		if err != nil {
			return err
		}
		for i := 0; i < nret; i++ {
			e.emit(bytecode.POP)
		}
		return nil

	case IncStmt:
		slot, err := e.localSlot(s.Name, false)
		if err != nil {
			return err
		}
		e.emitArg(bytecode.IINC, int32(slot))
		return nil

	case HaltStmt:
		e.emit(bytecode.HALT)
		return nil
	}
	return fmt.Errorf("unknown statement %T", s)
}

func (e *emitter) checkField(class, field string) error {
	for _, c := range e.prog.Classes {
		if c.Name != class {
			continue
		}
		for _, f := range c.Fields {
			if f == field {
				return nil
			}
		}
		return fmt.Errorf("class %q has no field %q", class, field)
	}
	return fmt.Errorf("no class %q", class)
}

// call emits a call and returns the callee's result arity.
func (e *emitter) call(c CallExpr) (int, error) {
	callee, ok := e.syms[classfile.Ref{Class: c.Class, Name: c.Func}]
	if !ok {
		return 0, fmt.Errorf("call to undefined %s.%s", c.Class, c.Func)
	}
	if len(c.Args) != len(callee.Params) {
		return 0, fmt.Errorf("call to %s.%s: %d args, want %d",
			c.Class, c.Func, len(c.Args), len(callee.Params))
	}
	for _, a := range c.Args {
		if err := e.expr(a); err != nil {
			return 0, err
		}
	}
	cp := e.b.MethodRef(c.Class, c.Func, len(callee.Params), callee.NRet)
	e.emitInvoke(cp, len(callee.Params), callee.NRet)
	return callee.NRet, nil
}

func (e *emitter) expr(x Expr) error {
	switch x := x.(type) {
	case ConstExpr:
		e.constant(x.V)
		return nil

	case LocalExpr:
		slot, err := e.localSlot(x.Name, false)
		if err != nil {
			return err
		}
		e.emitArg(bytecode.LOAD, int32(slot))
		return nil

	case GlobalExpr:
		if err := e.checkField(x.Class, x.Field); err != nil {
			return err
		}
		e.emitArg(bytecode.GETSTATIC, int32(e.b.FieldRef(x.Class, x.Field)))
		return nil

	case BinExpr:
		if x.Op.IsCompare() {
			return e.compareValue(x)
		}
		if err := e.expr(x.A); err != nil {
			return err
		}
		if err := e.expr(x.B); err != nil {
			return err
		}
		e.emit(arithOp(x.Op))
		return nil

	case NegExpr:
		if err := e.expr(x.A); err != nil {
			return err
		}
		e.emit(bytecode.INEG)
		return nil

	case NotExpr:
		// !a == (a == 0)
		return e.compareValue(BinExpr{Op: OpEq, A: x.A, B: ConstExpr{V: 0}})

	case CallExpr:
		nret, err := e.call(x)
		if err != nil {
			return err
		}
		if nret != 1 {
			return fmt.Errorf("void call %s.%s used as value", x.Class, x.Func)
		}
		return nil

	case IndexExpr:
		if err := e.expr(x.Arr); err != nil {
			return err
		}
		if err := e.expr(x.I); err != nil {
			return err
		}
		e.emit(bytecode.ALOAD)
		return nil

	case LenExpr:
		if err := e.expr(x.Arr); err != nil {
			return err
		}
		e.emit(bytecode.ARRAYLEN)
		return nil

	case NewArrExpr:
		if err := e.expr(x.N); err != nil {
			return err
		}
		e.emit(bytecode.NEWARRAY)
		return nil

	case StrExpr:
		e.emitArg(bytecode.LDC, int32(e.b.String(x.S)))
		return nil
	}
	return fmt.Errorf("unknown expression %T", x)
}

// constant emits the smallest encoding of v: BIPUSH for s8, SIPUSH for
// s16, otherwise an LDC of a pooled Integer/Long constant. Wide constants
// therefore populate the constant pool, as javac's do.
func (e *emitter) constant(v int64) {
	switch {
	case v >= math.MinInt8 && v <= math.MaxInt8:
		e.emitArg(bytecode.BIPUSH, int32(v))
	case v >= math.MinInt16 && v <= math.MaxInt16:
		e.emitArg(bytecode.SIPUSH, int32(v))
	default:
		e.emitArg(bytecode.LDC, int32(e.b.Integer(v)))
	}
}

func arithOp(op BinOp) bytecode.Op {
	switch op {
	case OpAdd:
		return bytecode.IADD
	case OpSub:
		return bytecode.ISUB
	case OpMul:
		return bytecode.IMUL
	case OpDiv:
		return bytecode.IDIV
	case OpRem:
		return bytecode.IREM
	case OpAnd:
		return bytecode.IAND
	case OpOr:
		return bytecode.IOR
	case OpXor:
		return bytecode.IXOR
	case OpShl:
		return bytecode.ISHL
	case OpShr:
		return bytecode.ISHR
	}
	panic(fmt.Sprintf("jir: not an arithmetic op: %v", op))
}

// compareBranchOps maps a relational operator to the bytecode branch taken
// when the comparison is TRUE, for the two-operand form.
func compareBranchOp(op BinOp) bytecode.Op {
	switch op {
	case OpEq:
		return bytecode.IFCMPEQ
	case OpNe:
		return bytecode.IFCMPNE
	case OpLt:
		return bytecode.IFCMPLT
	case OpLe:
		return bytecode.IFCMPLE
	case OpGt:
		return bytecode.IFCMPGT
	case OpGe:
		return bytecode.IFCMPGE
	}
	panic(fmt.Sprintf("jir: not a comparison: %v", op))
}

// negateCompare returns the complementary relational operator.
func negateCompare(op BinOp) BinOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	panic(fmt.Sprintf("jir: not a comparison: %v", op))
}

// branchFalse emits code that jumps to l when cond is false.
func (e *emitter) branchFalse(cond Expr, l int32) error {
	switch c := cond.(type) {
	case BinExpr:
		if c.Op.IsCompare() {
			if err := e.expr(c.A); err != nil {
				return err
			}
			// Comparisons against zero use the compact one-operand form.
			if k, ok := c.B.(ConstExpr); ok && k.V == 0 {
				e.emitBranch(zeroBranchOp(negateCompare(c.Op)), l)
				return nil
			}
			if err := e.expr(c.B); err != nil {
				return err
			}
			e.emitBranch(compareBranchOp(negateCompare(c.Op)), l)
			return nil
		}
	case NotExpr:
		return e.branchTrue(c.A, l)
	}
	if err := e.expr(cond); err != nil {
		return err
	}
	e.emitBranch(bytecode.IFEQ, l)
	return nil
}

// branchTrue emits code that jumps to l when cond is true.
func (e *emitter) branchTrue(cond Expr, l int32) error {
	switch c := cond.(type) {
	case BinExpr:
		if c.Op.IsCompare() {
			if err := e.expr(c.A); err != nil {
				return err
			}
			if k, ok := c.B.(ConstExpr); ok && k.V == 0 {
				e.emitBranch(zeroBranchOp(c.Op), l)
				return nil
			}
			if err := e.expr(c.B); err != nil {
				return err
			}
			e.emitBranch(compareBranchOp(c.Op), l)
			return nil
		}
	case NotExpr:
		return e.branchFalse(c.A, l)
	}
	if err := e.expr(cond); err != nil {
		return err
	}
	e.emitBranch(bytecode.IFNE, l)
	return nil
}

func zeroBranchOp(op BinOp) bytecode.Op {
	switch op {
	case OpEq:
		return bytecode.IFEQ
	case OpNe:
		return bytecode.IFNE
	case OpLt:
		return bytecode.IFLT
	case OpLe:
		return bytecode.IFLE
	case OpGt:
		return bytecode.IFGT
	case OpGe:
		return bytecode.IFGE
	}
	panic(fmt.Sprintf("jir: not a comparison: %v", op))
}

// compareValue materializes a relational result as 0 or 1.
func (e *emitter) compareValue(x BinExpr) error {
	trueL := e.newLabel()
	endL := e.newLabel()
	if err := e.branchTrue(x, trueL); err != nil {
		return err
	}
	e.emitArg(bytecode.BIPUSH, 0)
	e.emitBranch(bytecode.GOTO, endL)
	if err := e.place(trueL); err != nil {
		return err
	}
	// place restored the no-value depth recorded at the branch; pushing
	// 1 here matches the depth at endL after the other arm pushed 0.
	e.emitArg(bytecode.BIPUSH, 1)
	return e.place(endL)
}

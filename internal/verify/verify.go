// Package verify implements the incremental verification the paper's
// non-strict JVM performs (§3.1.1): class-level checks run as soon as the
// global data arrives, and per-method bytecode checks run as each method
// body arrives — so verification streams with the transfer instead of
// gating on whole files.
//
// Class-level checks (VerifyGlobal): constant-pool well-formedness (tag
// validity, reference indices in range and of the right kind, no cycles
// by construction), this/super resolution, field and method header
// validity, and descriptor syntax.
//
// Method-level checks (VerifyMethod): decodability, branch targets on
// instruction boundaries, constant-pool operand kinds, local-slot bounds
// against MaxLocals, and an abstract stack-depth simulation proving the
// operand stack never underflows, never exceeds MaxStack, and is
// consistent at every join point.
package verify

import (
	"fmt"
	"slices"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
)

// Error is a verification failure.
type Error struct {
	Class  string
	Method string // empty for class-level failures
	Msg    string
}

func (e *Error) Error() string {
	if e.Method == "" {
		return fmt.Sprintf("verify: class %s: %s", e.Class, e.Msg)
	}
	return fmt.Sprintf("verify: %s.%s: %s", e.Class, e.Method, e.Msg)
}

func classErr(c *classfile.Class, format string, args ...any) error {
	return &Error{Class: c.Name, Msg: fmt.Sprintf(format, args...)}
}

// wantKind checks that constant i of c exists and has kind k. what names
// the holder of the reference and is called only to word a failure:
// VerifyGlobal runs per class per session, and a name formatted up front
// for every constant, field and method was most of its garbage.
func wantKind(c *classfile.Class, i uint16, k classfile.ConstKind, what func() string) error {
	if int(i) <= 0 || int(i) >= len(c.CP) {
		return classErr(c, "%s references constant %d, pool has %d entries", what(), i, len(c.CP))
	}
	if got := c.CP[i].Kind; got != k {
		return classErr(c, "%s references a %v constant, want %v", what(), got, k)
	}
	return nil
}

// VerifyGlobal checks everything checkable once a class's global data has
// arrived — steps 1 and 2 of the paper's five-step verification.
func VerifyGlobal(c *classfile.Class) error {
	n := len(c.CP)
	if n == 0 {
		return classErr(c, "empty constant pool")
	}
	named := func(s string) func() string { return func() string { return s } }

	for i := 1; i < n; i++ {
		e := c.CP[i]
		what := func() string { return fmt.Sprintf("constant %d (%v)", i, e.Kind) }
		switch e.Kind {
		case classfile.KUtf8, classfile.KInteger, classfile.KFloat,
			classfile.KLong, classfile.KDouble:
			// Self-contained.
		case classfile.KClass, classfile.KString:
			if err := wantKind(c, e.A, classfile.KUtf8, what); err != nil {
				return err
			}
		case classfile.KNameAndType:
			if err := wantKind(c, e.A, classfile.KUtf8, what); err != nil {
				return err
			}
			if err := wantKind(c, e.B, classfile.KUtf8, what); err != nil {
				return err
			}
		case classfile.KFieldRef, classfile.KMethodRef, classfile.KInterfaceMethodRef:
			if err := wantKind(c, e.A, classfile.KClass, what); err != nil {
				return err
			}
			if err := wantKind(c, e.B, classfile.KNameAndType, what); err != nil {
				return err
			}
		default:
			return classErr(c, "constant %d has invalid tag %d", i, e.Kind)
		}
	}

	if err := wantKind(c, c.ThisClass, classfile.KClass, named("this_class")); err != nil {
		return err
	}
	if c.SuperClass != 0 {
		if err := wantKind(c, c.SuperClass, classfile.KClass, named("super_class")); err != nil {
			return err
		}
	}
	for _, i := range c.Interfaces {
		if err := wantKind(c, i, classfile.KClass, named("interface")); err != nil {
			return err
		}
	}
	for fi, f := range c.Fields {
		what := func() string { return fmt.Sprintf("field %d", fi) }
		if err := wantKind(c, f.Name, classfile.KUtf8, what); err != nil {
			return err
		}
		if err := wantKind(c, f.Desc, classfile.KUtf8, what); err != nil {
			return err
		}
		for _, a := range f.Attrs {
			if err := wantKind(c, a.Name, classfile.KUtf8, func() string { return what() + " attribute" }); err != nil {
				return err
			}
		}
	}
	for _, a := range c.Attrs {
		if err := wantKind(c, a.Name, classfile.KUtf8, named("class attribute")); err != nil {
			return err
		}
	}
	for mi, m := range c.Methods {
		what := func() string { return fmt.Sprintf("method %d", mi) }
		if err := wantKind(c, m.Name, classfile.KUtf8, what); err != nil {
			return err
		}
		if err := wantKind(c, m.Desc, classfile.KUtf8, what); err != nil {
			return err
		}
	}
	if name, dup := dupMethod(c); dup {
		return classErr(c, "duplicate method %q", name)
	}
	for _, m := range c.Methods {
		name := c.Utf8(m.Name)
		na, nr, err := classfile.ParseDescriptor(c.Utf8(m.Desc))
		if err != nil {
			return classErr(c, "method %q: %v", name, err)
		}
		if na != m.NArgs || nr != m.NRet {
			return classErr(c, "method %q: cached arity (%d,%d) disagrees with descriptor (%d,%d)",
				name, m.NArgs, m.NRet, na, nr)
		}
		if int(m.MaxLocals) < m.NArgs {
			return classErr(c, "method %q: MaxLocals %d below arity %d", name, m.MaxLocals, m.NArgs)
		}
	}
	return nil
}

// pairwiseMethods is the largest method count dupMethod checks pair by
// pair: up to it, the check allocates nothing and stays cheap.
const pairwiseMethods = 32

// dupMethod reports a method name c declares twice. A class of a few
// methods, which is most of them, is checked pairwise; a larger one
// through a set, so a hostile method count costs linear time.
func dupMethod(c *classfile.Class) (string, bool) {
	if len(c.Methods) <= pairwiseMethods {
		for i, m := range c.Methods {
			name := c.Utf8(m.Name)
			for _, o := range c.Methods[:i] {
				if c.Utf8(o.Name) == name {
					return name, true
				}
			}
		}
		return "", false
	}
	seen := make(map[string]bool, len(c.Methods))
	for _, m := range c.Methods {
		name := c.Utf8(m.Name)
		if seen[name] {
			return name, true
		}
		seen[name] = true
	}
	return "", false
}

// Resolver answers cross-class questions during method verification. In
// a non-strict loader this is the incremental link state: a callee's
// arity is known once the callee class's global data has arrived.
type Resolver interface {
	// MethodArity returns the arity of class.name, or ok=false if the
	// class's global data has not arrived yet (the check is then
	// deferred, as the paper defers cross-class dependence analysis).
	MethodArity(class, name string) (nargs, nret int, ok bool)
	// HasField reports whether class.name is a declared static field,
	// with ok=false when unknown.
	HasField(class, name string) (exists, ok bool)
}

// ProgramResolver resolves against a fully available program.
type ProgramResolver struct{ Prog *classfile.Program }

// MethodArity implements Resolver.
func (r ProgramResolver) MethodArity(class, name string) (int, int, bool) {
	c := r.Prog.Class(class)
	if c == nil {
		return 0, 0, true // resolved: definitively missing
	}
	m := c.MethodByName(name)
	if m == nil {
		return 0, 0, true
	}
	return m.NArgs, m.NRet, true
}

// HasField implements Resolver.
func (r ProgramResolver) HasField(class, name string) (bool, bool) {
	c := r.Prog.Class(class)
	if c == nil {
		return false, true
	}
	for _, f := range c.Fields {
		if c.Utf8(f.Name) == name {
			return true, true
		}
	}
	return false, true
}

func methodErr(c *classfile.Class, m *classfile.Method, format string, args ...any) error {
	return &Error{Class: c.Name, Method: c.MethodName(m), Msg: fmt.Sprintf(format, args...)}
}

// effect is one instruction's operand-stack effect with call arity
// resolved.
type effect struct{ pop, push int32 }

// Scratch holds VerifyMethod's working arrays — decoded instructions, the
// instruction-boundary index, per-instruction effects and branch targets,
// and the depth simulation's state — so that a caller verifying method
// after method (the stream loader, one install at a time) allocates them
// once instead of once per method. The zero value is ready to use. A
// Scratch must not be used by two verifications at once.
type Scratch struct {
	instrs  []bytecode.Instr
	at      []int32 // byte offset → instruction index, −1 off-boundary
	effects []effect
	targets []int32 // branch target instruction index, or −1
	depth   []int32 // stack depth on entry, or −1 if not yet reached
	work    []int32
}

// sized returns s at length n, reusing its capacity when it suffices; the
// contents are whatever the last use left.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// VerifyMethod checks one method body — the per-procedure step the
// non-strict loader runs as each delimiter arrives. res may be nil to
// skip cross-class checks (they are then the caller's responsibility,
// matching the paper's deferred interprocedural analysis).
func VerifyMethod(c *classfile.Class, m *classfile.Method, res Resolver) error {
	var s Scratch
	return s.VerifyMethod(c, m, res)
}

// VerifyMethod is the package-level VerifyMethod run out of s.
func (s *Scratch) VerifyMethod(c *classfile.Class, m *classfile.Method, res Resolver) error {
	var err error
	s.instrs, s.at, err = bytecode.Index(m.Code, s.instrs, s.at)
	if err != nil {
		return methodErr(c, m, "%v", err)
	}
	instrs := s.instrs
	n := len(instrs)
	if n == 0 {
		return methodErr(c, m, "empty code")
	}
	s.effects, s.targets, s.depth = sized(s.effects, n), sized(s.targets, n), sized(s.depth, n)
	effects, targets, depth := s.effects, s.targets, s.depth

	// Per-instruction stack effect, resolving call arity.
	off := 0
	for i, in := range instrs {
		targets[i] = -1
		info := in.Op.Info()
		effects[i] = effect{int32(info.Pop), int32(info.Push)}
		switch {
		case info.Branch:
			tgt := off + int(in.Arg)
			if tgt < 0 || tgt >= len(s.at) || s.at[tgt] < 0 {
				return methodErr(c, m, "branch at offset %d into the middle of an instruction", off)
			}
			targets[i] = s.at[tgt]
		case in.Op == bytecode.INVOKE:
			cls, name, desc, err := refOperand(c, uint16(in.Arg), classfile.KMethodRef)
			if err != nil {
				return methodErr(c, m, "%v", err)
			}
			na, nr, derr := classfile.ParseDescriptor(desc)
			if derr != nil {
				return methodErr(c, m, "call descriptor: %v", derr)
			}
			if res != nil {
				if cna, cnr, ok := res.MethodArity(cls, name); ok {
					if cna != na || cnr != nr {
						return methodErr(c, m, "call to %s.%s expects (%d)->%d, target is (%d)->%d",
							cls, name, na, nr, cna, cnr)
					}
				}
			}
			effects[i] = effect{int32(na), int32(nr)}
		case in.Op == bytecode.GETSTATIC || in.Op == bytecode.PUTSTATIC:
			cls, name, _, err := refOperand(c, uint16(in.Arg), classfile.KFieldRef)
			if err != nil {
				return methodErr(c, m, "%v", err)
			}
			if res != nil {
				if exists, ok := res.HasField(cls, name); ok && !exists {
					return methodErr(c, m, "access to undeclared field %s.%s", cls, name)
				}
			}
		case in.Op == bytecode.LDC:
			if int(in.Arg) <= 0 || int(in.Arg) >= len(c.CP) {
				return methodErr(c, m, "LDC of constant %d, pool has %d entries", in.Arg, len(c.CP))
			}
			switch k := c.CP[in.Arg].Kind; k {
			case classfile.KInteger, classfile.KLong, classfile.KString:
			default:
				return methodErr(c, m, "LDC of unsupported %v constant", k)
			}
		case in.Op == bytecode.LOAD || in.Op == bytecode.STORE || in.Op == bytecode.IINC:
			if int(in.Arg) >= int(m.MaxLocals) {
				return methodErr(c, m, "%s of local %d, MaxLocals is %d", in.Op, in.Arg, m.MaxLocals)
			}
		}
		off += in.Width()
	}

	// Abstract stack-depth simulation over the control-flow graph.
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	s.work = append(s.work[:0], 0)
	for len(s.work) > 0 {
		i := int(s.work[len(s.work)-1])
		s.work = s.work[:len(s.work)-1]
		in := instrs[i]
		d := int(depth[i] - effects[i].pop)
		if d < 0 {
			return methodErr(c, m, "stack underflow at instruction %d (%s)", i, in.Op)
		}
		d += int(effects[i].push)
		if d > int(m.MaxStack) {
			return methodErr(c, m, "stack depth %d exceeds MaxStack %d after instruction %d (%s)",
				d, m.MaxStack, i, in.Op)
		}
		if targets[i] >= 0 {
			if err := s.flow(c, m, int(targets[i]), d); err != nil {
				return err
			}
		}
		if !in.Op.Info().Terminal {
			if i+1 >= n {
				return methodErr(c, m, "control falls off the end of the code")
			}
			if err := s.flow(c, m, i+1, d); err != nil {
				return err
			}
		}
		if in.Op == bytecode.IRETURN && depth[i] < 1 {
			return methodErr(c, m, "ireturn with empty stack")
		}
	}
	return nil
}

// flow propagates stack depth d along an edge into instruction to,
// queueing it on first reach and checking consistency at joins.
func (s *Scratch) flow(c *classfile.Class, m *classfile.Method, to, d int) error {
	if d < 0 {
		return methodErr(c, m, "stack underflow reaching instruction %d", to)
	}
	if d > int(m.MaxStack) {
		return methodErr(c, m, "stack depth %d exceeds MaxStack %d at instruction %d", d, m.MaxStack, to)
	}
	if s.depth[to] == -1 {
		s.depth[to] = int32(d)
		s.work = append(s.work, int32(to))
		return nil
	}
	if int(s.depth[to]) != d {
		return methodErr(c, m, "inconsistent stack depth at join %d: %d vs %d", to, s.depth[to], d)
	}
	return nil
}

// refOperand validates a member-reference operand and resolves it.
// KMethodRef accepts InterfaceMethodRef as well, as the JVM does.
func refOperand(c *classfile.Class, idx uint16, want classfile.ConstKind) (cls, name, desc string, err error) {
	if int(idx) <= 0 || int(idx) >= len(c.CP) {
		return "", "", "", fmt.Errorf("operand references constant %d, pool has %d entries", idx, len(c.CP))
	}
	k := c.CP[idx].Kind
	okKind := k == want || (want == classfile.KMethodRef && k == classfile.KInterfaceMethodRef)
	if !okKind {
		return "", "", "", fmt.Errorf("operand references a %v constant, want %v", k, want)
	}
	cls, name, desc = c.RefTarget(idx)
	return cls, name, desc, nil
}

// VerifyClass runs the global check followed by every method check — the
// strict-execution behaviour, provided for parity and for tests.
func VerifyClass(c *classfile.Class, res Resolver) error {
	var s Scratch
	return s.verifyClass(c, res)
}

func (s *Scratch) verifyClass(c *classfile.Class, res Resolver) error {
	if err := VerifyGlobal(c); err != nil {
		return err
	}
	for _, m := range c.Methods {
		if err := s.VerifyMethod(c, m, res); err != nil {
			return err
		}
	}
	return nil
}

// VerifyProgram verifies every class against the whole-program resolver.
func VerifyProgram(p *classfile.Program) error {
	res := ProgramResolver{Prog: p}
	var s Scratch
	for _, c := range p.Classes {
		if err := s.verifyClass(c, res); err != nil {
			return err
		}
	}
	return nil
}

// Package vm interprets substrate programs.
//
// The VM plays two roles from the paper's methodology. It is the
// execution engine that gives every workload real dynamic behaviour, and
// it is the instrumentation layer (the paper used BIT): it measures
// per-method dynamic instruction counts, the first-use order of methods,
// per-method covered (unique executed) code bytes, and an exact segment
// trace — the sequence of (method, instruction-count) runs between
// control transfers — that the overlap simulator replays.
package vm

import (
	"fmt"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
)

// Internal pseudo-opcodes produced by linking. They never appear in wire
// code, and they number on from the last wire opcode so the
// interpreter's switch stays dense enough to compile to a jump table.
// LDC is split by constant kind so the interpreter loop stays a flat
// switch. The xU ops are cross-class references the live (incremental)
// linker could not resolve when the method was decoded because the
// target class had not arrived; executing one blocks at the gate until
// the class links, then patches itself into the resolved op, so the hot
// path pays nothing after first execution. xEnd follows the last
// instruction of every method, so falling off the end of the code traps
// without the interpreter range-checking the pc of every instruction.
// The superinstructions after it each execute a whole run of
// instructions in one dispatch (fuse.go).
const (
	xLdcInt     = bytecode.HALT + 1 + iota // a indexes Machine.consts
	xLdcStr                                // a indexes Machine.strs
	xInvokeU                               // a indexes LiveLinked.pending
	xGetStaticU                            // a indexes LiveLinked.pending
	xPutStaticU                            // a indexes LiveLinked.pending
	xEnd                                   // end-of-code sentinel

	xLoadBipushIfcmpne
	xLoadBipushIfcmpge
	xLoadLoadIfcmpge
	xLoadLoadArraylen
	xLoadLoad
	xLoadIaddAload
	xLoadIadd
	xLoadSipushImul
	xLoadIreturn
	xStoreLoadLoad
	xStoreLoad
	xIincGoto
	xGetstaticBipushAload
	xGetstaticBipushImul
	xGetstaticBipush
	xGetstaticLoad
	xLdcIntIand
	xIaddLdcIntIand
	xBipushIand
	xBipushIadd
	xBipushIreturn
	xAloadIfeq
	xLast = xAloadIfeq
)

// linkedInstr is a pre-resolved instruction. Branch targets are
// instruction indices; INVOKE's a is the callee MethodID; static field
// accesses index the flat globals array. The field order keeps it at 12
// bytes.
type linkedInstr struct {
	op    bytecode.Op
	width int8 // encoded width in bytes, for coverage accounting
	// For INVOKE: callee arity. For a superinstruction: its second and
	// third operands (fuse.go).
	nargs, nret int8
	a           int32
	// blk is nonzero only on a basic-block leader, where it is the number
	// of instructions in the block. Leaders are instruction 0, every
	// branch target, and the instruction after each branch, terminal and
	// call, so a block runs to its end once entered unless the run ends
	// inside it, and a call closes the block as it closes a segment. The
	// interpreter does its accounting once per block on this count.
	blk int32
}

type linkedMethod struct {
	id     classfile.MethodID
	ref    classfile.Ref
	nargs  int
	nret   int
	nloc   int
	nstack int
	code   []linkedInstr // nil until the body is linked (live mode)

	// owner and def back-reference the class file for lazy linking;
	// only set by the live linker.
	owner *classfile.Class
	def   *classfile.Method
}

// globalKey identifies a static field.
type globalKey struct{ class, field string }

// Linked is a program resolved for execution: decoded instruction arrays,
// resolved call and field references, and interned constants.
type Linked struct {
	prog    *classfile.Program
	index   *classfile.Index
	methods []*linkedMethod
	consts  []int64
	strs    []string
	globals map[globalKey]int
	nglob   int
	main    classfile.MethodID

	// live is non-nil when the program links incrementally as a stream
	// delivers it; the machine then routes growth and unresolved-op
	// patching through it.
	live *LiveLinked
}

// linkState interns constants and strings across a program's methods
// and carries linkCode's decode scratch from one method to the next. In
// live mode it is touched only by the executing goroutine.
type linkState struct {
	ln       *Linked
	constIdx map[int64]int32
	strIdx   map[string]int32

	instrs []bytecode.Instr
	at     []int32 // byte offset → instruction index, −1 off-boundary
}

func newLinkState(ln *Linked) *linkState {
	return &linkState{ln: ln, constIdx: make(map[int64]int32), strIdx: make(map[string]int32)}
}

func (ls *linkState) internInt(v int64) int32 {
	ci, ok := ls.constIdx[v]
	if !ok {
		ci = int32(len(ls.ln.consts))
		ls.ln.consts = append(ls.ln.consts, v)
		ls.constIdx[v] = ci
	}
	return ci
}

func (ls *linkState) internStr(s string) int32 {
	si, ok := ls.strIdx[s]
	if !ok {
		si = int32(len(ls.ln.strs))
		ls.ln.strs = append(ls.ln.strs, s)
		ls.strIdx[s] = si
	}
	return si
}

// opResolver resolves cross-class references while linking one method's
// code. The eager resolver (Link) fails on anything unresolvable; the
// live resolver emits patchable pseudo-ops for classes still in flight.
type opResolver interface {
	invoke(class, name, desc string, nargs, nret int) (linkedInstr, error)
	static(op bytecode.Op, class, name string) (linkedInstr, error)
}

// linkCode decodes and resolves one method body into lm.code: branch
// targets become instruction indices, LDC splits by constant kind, calls
// and static field accesses go through res, each block leader carries
// its block's length, an xEnd sentinel closes the code, and common runs
// inside a block become superinstructions.
func linkCode(c *classfile.Class, mm *classfile.Method, lm *linkedMethod, ls *linkState, res opResolver) error {
	var err error
	ls.instrs, ls.at, err = bytecode.Index(mm.Code, ls.instrs, ls.at)
	if err != nil {
		return fmt.Errorf("vm: %v: %w", lm.ref, err)
	}
	n := len(ls.instrs)
	code := make([]linkedInstr, n+1)
	// First pass: blk = 1 marks a leader. A forward branch or the
	// instruction before may have marked a slot before the loop reaches
	// it, so each instruction keeps the mark already there.
	if n > 0 {
		code[0].blk = 1
	}
	off := 0
	for i, in := range ls.instrs {
		li := linkedInstr{op: in.Op, a: in.Arg, width: int8(in.Width()), blk: code[i].blk}
		info := in.Op.Info()
		switch {
		case info.Branch:
			tgt := off + int(in.Arg)
			if tgt < 0 || tgt >= len(ls.at) || ls.at[tgt] < 0 {
				return fmt.Errorf("vm: %v: branch at %d to middle of instruction (%d)", lm.ref, off, tgt)
			}
			li.a = ls.at[tgt]
		case in.Op == bytecode.LDC:
			e := c.Const(uint16(in.Arg))
			switch e.Kind {
			case classfile.KInteger, classfile.KLong:
				li.op = xLdcInt
				li.a = ls.internInt(e.Int)
			case classfile.KString:
				li.op = xLdcStr
				li.a = ls.internStr(c.Utf8(e.A))
			default:
				return fmt.Errorf("vm: %v: LDC of %v constant", lm.ref, e.Kind)
			}
		case in.Op == bytecode.INVOKE:
			class, name, desc := c.RefTarget(uint16(in.Arg))
			na, nr, err := classfile.ParseDescriptor(desc)
			if err != nil {
				return fmt.Errorf("vm: %v: %w", lm.ref, err)
			}
			ri, err := res.invoke(class, name, desc, na, nr)
			if err != nil {
				return fmt.Errorf("vm: %v: %w", lm.ref, err)
			}
			ri.width, ri.blk = li.width, li.blk
			li = ri
		case in.Op == bytecode.GETSTATIC || in.Op == bytecode.PUTSTATIC:
			class, name, _ := c.RefTarget(uint16(in.Arg))
			ri, err := res.static(in.Op, class, name)
			if err != nil {
				return fmt.Errorf("vm: %v: %w", lm.ref, err)
			}
			ri.width, ri.blk = li.width, li.blk
			li = ri
		}
		code[i] = li
		if info.Branch {
			code[li.a].blk = 1
		}
		if (info.Branch || info.Terminal || in.Op == bytecode.INVOKE) && i+1 < n {
			code[i+1].blk = 1
		}
		off += in.Width()
	}
	// Second pass: turn each mark into the length of its block.
	end := int32(n)
	for i := int32(n) - 1; i >= 0; i-- {
		if code[i].blk != 0 {
			code[i].blk = end - i
			end = i
		}
	}
	code[n] = linkedInstr{op: xEnd}
	fuse(code)
	lm.code = code
	return nil
}

// eagerResolver resolves against a complete, indexed program; anything
// unresolvable is a link error, mirroring the JVM's resolution phase.
type eagerResolver struct {
	ln *Linked
	ix *classfile.Index
}

func (r eagerResolver) invoke(class, name, desc string, na, nr int) (linkedInstr, error) {
	callee := r.ix.ID(classfile.Ref{Class: class, Name: name})
	if callee == classfile.NoMethod {
		return linkedInstr{}, fmt.Errorf("call to undefined %s.%s", class, name)
	}
	cm := r.ix.Method(callee)
	if cm.NArgs != na || cm.NRet != nr {
		return linkedInstr{}, fmt.Errorf("call to %s.%s with descriptor %q, target has (%d)->%d",
			class, name, desc, cm.NArgs, cm.NRet)
	}
	return linkedInstr{op: bytecode.INVOKE, a: int32(callee), nargs: int8(na), nret: int8(nr)}, nil
}

func (r eagerResolver) static(op bytecode.Op, class, name string) (linkedInstr, error) {
	slot, ok := r.ln.globals[globalKey{class, name}]
	if !ok {
		return linkedInstr{}, fmt.Errorf("access to undefined field %s.%s", class, name)
	}
	return linkedInstr{op: op, a: int32(slot)}, nil
}

// Link resolves a program for execution. All constant-pool references are
// checked here; Link fails on dangling references, bad descriptors, or
// malformed code, mirroring the JVM's resolution phase.
func Link(p *classfile.Program) (*Linked, error) {
	ix := p.IndexMethods()
	ln := &Linked{
		prog:    p,
		index:   ix,
		globals: make(map[globalKey]int),
	}
	// Allocate global slots for every declared static field.
	for _, c := range p.Classes {
		for _, f := range c.Fields {
			k := globalKey{c.Name, c.Utf8(f.Name)}
			if _, dup := ln.globals[k]; dup {
				return nil, fmt.Errorf("vm: duplicate field %s.%s", k.class, k.field)
			}
			ln.globals[k] = ln.nglob
			ln.nglob++
		}
	}

	ls := newLinkState(ln)
	var res opResolver = eagerResolver{ln: ln, ix: ix} // boxed once, not per method

	for id := classfile.MethodID(0); int(id) < ix.Len(); id++ {
		c := ix.Class(id)
		m := ix.Method(id)
		lm := &linkedMethod{
			id:     id,
			ref:    ix.Ref(id),
			nargs:  m.NArgs,
			nret:   m.NRet,
			nloc:   int(m.MaxLocals),
			nstack: int(m.MaxStack),
		}
		if err := linkCode(c, m, lm, ls, res); err != nil {
			return nil, err
		}
		ln.methods = append(ln.methods, lm)
	}

	ln.main = ix.ID(p.Main())
	if ln.main == classfile.NoMethod {
		return nil, fmt.Errorf("vm: program %q has no entry point %v", p.Name, p.Main())
	}
	return ln, nil
}

// Index returns the method index built during linking.
func (ln *Linked) Index() *classfile.Index { return ln.index }

// Program returns the linked program.
func (ln *Linked) Program() *classfile.Program { return ln.prog }

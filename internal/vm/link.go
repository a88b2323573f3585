// Package vm interprets substrate programs.
//
// The VM plays two roles from the paper's methodology. It is the
// execution engine that gives every workload real dynamic behaviour, and
// it is the instrumentation layer (the paper used BIT): it measures
// per-method dynamic instruction counts, the first-use order of methods,
// per-method covered (unique executed) code bytes, and an exact segment
// trace — the sequence of (method, instruction-count) runs between
// control transfers — that the overlap simulator replays.
//
// It has one linker, Linked, which links a program as a stream delivers
// it (NewLive, AddClass) and runs it behind a Gate, so a method runs once
// its own bytes are in. Link is the same linker given the whole program
// and a gate that never waits; on both, a body links at its first
// invocation.
package vm

import (
	"fmt"
	"sync"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
)

// Internal pseudo-opcodes produced by linking. They never appear in wire
// code, and they number on from the last wire opcode so the
// interpreter's switch stays dense enough to compile to a jump table.
// LDC is split by constant kind so the interpreter loop stays a flat
// switch. The xU ops are cross-class references the linker could not
// resolve when the method was decoded because the target class had not
// arrived; executing one blocks at the gate until the class links, then
// patches itself into the resolved op, so the hot path pays nothing after
// first execution. xEnd follows the last
// instruction of every method, so falling off the end of the code traps
// without the interpreter range-checking the pc of every instruction.
// The superinstructions after it each execute a whole run of
// instructions in one dispatch (fuse.go).
const (
	xLdcInt     = bytecode.HALT + 1 + iota // a indexes Machine.consts
	xLdcStr                                // a indexes Machine.strs
	xInvokeU                               // a indexes Linked.pending
	xGetStaticU                            // a indexes Linked.pending
	xPutStaticU                            // a indexes Linked.pending
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

// linkedMethod is one method as the machine runs it. Its class file and
// method are the index's, read under the link lock; everything here but
// code is fixed when the class is added, so the executing goroutine reads
// it without the lock.
type linkedMethod struct {
	id     classfile.MethodID
	ref    classfile.Ref
	nargs  int
	nret   int
	nloc   int
	nstack int
	code   []linkedInstr // nil until the body is linked
}

// globalKey identifies a static field.
type globalKey struct{ class, field string }

// Gate is the VM's pluggable method-availability hook. The machine calls
// AwaitMethod on the first invocation of each method and AwaitClass when
// patching an unresolved cross-class reference; both block until the
// streamed bytes have arrived (or a demand fetch delivers them) and
// return an error only when the transfer itself failed. A nil error is
// the happens-before edge that makes the loader's writes to class and
// method data visible to the executing goroutine.
type Gate interface {
	AwaitMethod(classfile.Ref) error
	AwaitClass(class string) error
}

// openGate is the gate of a program linked whole: everything is in.
type openGate struct{}

func (openGate) AwaitMethod(classfile.Ref) error { return nil }
func (openGate) AwaitClass(string) error         { return nil }

// pendingRef is a cross-class reference as the linker decodes it: a call
// (op INVOKE, with its descriptor and arity) or a static field access.
// One whose class had not arrived when its method linked is kept in
// Linked.pending, which the unresolved pseudo-ops index.
type pendingRef struct {
	class, name, desc string
	op                bytecode.Op
	nargs, nret       int32 // int32 keeps the struct at 64 bytes
}

// Linked is a program resolved for execution: decoded instruction arrays,
// resolved call and field references, and interned constants. It links
// as a stream delivers the program, so execution can begin before the
// program has finished arriving (the paper's non-strict execution, §3).
// The loader goroutine feeds classes in with AddClass; the executing
// goroutine links each method body at its first invocation, after its
// Gate confirms the bytes are present. Cross-class references into
// classes still in flight become self-patching pseudo-ops, so the
// interpreter's hot path pays nothing once a reference has resolved.
// Link is the same linker given the whole program up front.
type Linked struct {
	// mu guards what AddClass writes: the index, methods, globals and
	// the program's classes. The executing goroutine alone links bodies,
	// under mu, and appends to consts, strs and pending, so a Linked
	// runs one machine at a time.
	mu   sync.Mutex
	gate Gate
	prog *classfile.Program
	// index numbers the methods of the classes added so far; nil until
	// the first class.
	index   *classfile.Index
	methods []*linkedMethod
	consts  []int64
	strs    []string
	globals map[globalKey]int
	nglob   int
	pending []pendingRef
	ls      *linkState
}

func newLinked(p *classfile.Program, gate Gate) *Linked {
	ln := &Linked{prog: p, gate: gate, globals: make(map[globalKey]int)}
	ln.ls = newLinkState(ln)
	return ln
}

// NewLive starts an empty program that classes stream into through
// AddClass; Run blocks at the gate until the main class is available.
func NewLive(name, mainClass string, gate Gate) *Linked {
	return newLinked(&classfile.Program{Name: name, MainClass: mainClass}, gate)
}

// Link resolves a whole program for execution: it is the live linker
// given every class up front, behind a gate that never waits. Link fails
// on a class, method or field declared twice or a missing entry point,
// and it links no body: as on the live path, each body links at its
// first invocation, so a malformed body, a dangling reference or a bad
// descriptor is Run's error at that invocation. Its IDs are
// IndexMethods's.
func Link(p *classfile.Program) (*Linked, error) {
	ln := newLinked(p, openGate{})
	n := p.NumMethods()
	for i, c := range p.Classes {
		if err := ln.AddClass(c, n); err != nil {
			return nil, err
		}
		if ln.index.ClassIndex(c.Name) != i {
			return nil, fmt.Errorf("vm: duplicate class %s", c.Name)
		}
	}
	if ln.entry() == classfile.NoMethod {
		return nil, fmt.Errorf("vm: program %q has no entry point %v", p.Name, p.Main())
	}
	return ln, nil
}

// AddClass registers an arrived class: its static fields get global
// slots and the index numbers its methods after those already added.
// Method bodies are not linked here; c.Methods[i].Code may still be nil.
// Idempotent on class name, so a demand-fetched duplicate global unit is
// harmless. Safe to call from the loader goroutine while the machine
// runs.
//
// units is how many units the program's stream carries — one per class
// and one per method, so at least its method count — or 0 when unknown.
// The first class sizes the method table and the index from it, and the
// machine's per-method arrays take the table's capacity, so none of them
// grows an entry at a time.
func (ln *Linked) AddClass(c *classfile.Class, units int) error {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.index == nil {
		ln.index = classfile.NewIndex(ln.prog, units)
		ln.methods = make([]*linkedMethod, 0, units)
	} else if ln.index.ClassIndex(c.Name) >= 0 {
		return nil
	}
	for _, f := range c.Fields {
		k := globalKey{c.Name, c.Utf8(f.Name)}
		if _, dup := ln.globals[k]; dup {
			return fmt.Errorf("vm: duplicate field %s.%s", k.class, k.field)
		}
		ln.globals[k] = ln.nglob
		ln.nglob++
	}
	first := classfile.MethodID(ln.index.Len())
	if err := ln.index.Add(c); err != nil {
		return err
	}
	lms := make([]linkedMethod, len(c.Methods)) // one allocation per class
	for i, mm := range c.Methods {
		id := first + classfile.MethodID(i)
		lms[i] = linkedMethod{
			id:     id,
			ref:    ln.index.Ref(id),
			nargs:  mm.NArgs,
			nret:   mm.NRet,
			nloc:   int(mm.MaxLocals),
			nstack: int(mm.MaxStack),
		}
		ln.methods = append(ln.methods, &lms[i])
	}
	return nil
}

// entry returns the main method's ID, or NoMethod before it arrives.
// Caller holds ln.mu.
func (ln *Linked) entry() classfile.MethodID {
	if ln.index == nil {
		return classfile.NoMethod
	}
	return ln.index.ID(ln.prog.Main())
}

// ensureLink decodes and links lm's body if it has not been yet. The
// caller must have passed the gate for lm, guaranteeing its code is
// written and stable. Only the executing goroutine calls this.
func (ln *Linked) ensureLink(lm *linkedMethod) error {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if lm.code != nil {
		return nil
	}
	return linkCode(lm, ln.ls)
}

// resolve links r against the classes added so far; anything it cannot
// find is a link error. Caller holds ln.mu.
func (ln *Linked) resolve(r pendingRef) (linkedInstr, error) {
	if r.op != bytecode.INVOKE {
		slot, ok := ln.globals[globalKey{r.class, r.name}]
		if !ok {
			return linkedInstr{}, fmt.Errorf("access to undefined field %s.%s", r.class, r.name)
		}
		return linkedInstr{op: r.op, a: int32(slot)}, nil
	}
	id := ln.index.ID(classfile.Ref{Class: r.class, Name: r.name})
	if id == classfile.NoMethod {
		return linkedInstr{}, fmt.Errorf("call to undefined %s.%s", r.class, r.name)
	}
	if lm := ln.methods[id]; lm.nargs != int(r.nargs) || lm.nret != int(r.nret) {
		return linkedInstr{}, fmt.Errorf("call to %s.%s with descriptor %q, target has (%d)->%d",
			r.class, r.name, r.desc, lm.nargs, lm.nret)
	}
	return linkedInstr{op: bytecode.INVOKE, a: int32(id), nargs: int8(r.nargs), nret: int8(r.nret)}, nil
}

// link resolves r for a body being linked: a reference into a class that
// has not arrived becomes an unresolved pseudo-op, which blocks at the
// gate when it first runs and patches itself. Behind the open gate every
// class is in, so a class that is not names one the program lacks.
// Caller holds ln.mu.
func (ln *Linked) link(r pendingRef) (linkedInstr, error) {
	if _, whole := ln.gate.(openGate); whole || ln.index.ClassIndex(r.class) >= 0 {
		return ln.resolve(r)
	}
	u := xInvokeU
	switch r.op {
	case bytecode.GETSTATIC:
		u = xGetStaticU
	case bytecode.PUTSTATIC:
		u = xPutStaticU
	}
	ln.pending = append(ln.pending, r)
	return linkedInstr{op: u, a: int32(len(ln.pending) - 1), nargs: int8(r.nargs), nret: int8(r.nret)}, nil
}

// linkState interns constants and strings across a program's methods
// and carries linkCode's decode scratch from one method to the next. It
// is touched only by the goroutine that links bodies, under the link
// lock.
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

// linkCode decodes and resolves lm's body into lm.code: branch targets
// become instruction indices, LDC splits by constant kind, calls and
// static field accesses resolve through the linker, each block leader
// carries its block's length, an xEnd sentinel closes the code, and
// common runs inside a block become superinstructions.
func linkCode(lm *linkedMethod, ls *linkState) error {
	c, mm := ls.ln.index.Class(lm.id), ls.ln.index.Method(lm.id)
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
		case in.Op == bytecode.INVOKE || in.Op == bytecode.GETSTATIC || in.Op == bytecode.PUTSTATIC:
			r := pendingRef{op: in.Op}
			r.class, r.name, r.desc = c.RefTarget(uint16(in.Arg))
			if in.Op == bytecode.INVOKE {
				na, nr, err := classfile.ParseDescriptor(r.desc)
				if err != nil {
					return fmt.Errorf("vm: %v: %w", lm.ref, err)
				}
				r.nargs, r.nret = int32(na), int32(nr)
			}
			ri, err := ls.ln.link(r)
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

// Index returns the program's method index: the classes added so far,
// their methods numbered in arrival order, which for Link is
// IndexMethods's (class, method) declaration order. It is nil before the
// first class, and a caller reads it only while no class is being added.
func (ln *Linked) Index() *classfile.Index { return ln.index }

// Program returns the linked program: for Link the program it was given,
// for NewLive the classes added so far.
func (ln *Linked) Program() *classfile.Program { return ln.prog }

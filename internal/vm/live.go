package vm

import (
	"fmt"
	"sync"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
)

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

// pendingRef is a cross-class reference the live linker could not
// resolve when it decoded the referencing method: the target class had
// not arrived yet. Unresolved pseudo-ops index this table.
type pendingRef struct {
	class, name, desc string
	nargs, nret       int // for calls
}

// LiveLinked links a program incrementally as a stream delivers its
// classes, so execution can begin before the program has finished
// arriving (the paper's non-strict execution, §3). The loader goroutine
// feeds classes in with AddClass; the executing goroutine links method
// bodies lazily at first invocation, after its Gate confirms the bytes
// are present. Cross-class references into classes still in flight
// become self-patching pseudo-ops, so the interpreter's hot path pays
// nothing once a reference has resolved.
type LiveLinked struct {
	mu   sync.Mutex
	ln   *Linked
	gate Gate

	byRef       map[classfile.Ref]classfile.MethodID
	classByName map[string]*classfile.Class
	pending     []pendingRef
	ls          *linkState
}

// NewLive starts an empty live program. Classes stream in via AddClass;
// Run blocks at the gate until the main class is available.
func NewLive(name, mainClass string, gate Gate) *LiveLinked {
	ln := &Linked{
		prog:    &classfile.Program{Name: name, MainClass: mainClass},
		globals: make(map[globalKey]int),
		main:    classfile.NoMethod,
	}
	lv := &LiveLinked{
		ln:          ln,
		gate:        gate,
		classByName: make(map[string]*classfile.Class),
	}
	lv.ls = newLinkState(ln)
	ln.live = lv
	return lv
}

// AddClass registers an arrived class: its static fields get global
// slots and its methods get MethodIDs (in arrival order — live IDs are
// not comparable to the eager linker's). Method bodies are not linked
// here; c.Methods[i].Code may still be nil. Idempotent on class name, so
// a demand-fetched duplicate global unit is harmless. Safe to call from
// the loader goroutine while the machine runs.
//
// units is how many units the program's stream carries — one per class
// and one per method, so at least its method count — or 0 when unknown.
// The first class sizes the method table and its index from it, and the
// machine's per-method arrays take the table's capacity, so none of them
// grows an entry at a time.
func (lv *LiveLinked) AddClass(c *classfile.Class, units int) error {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if _, dup := lv.classByName[c.Name]; dup {
		return nil
	}
	for _, f := range c.Fields {
		k := globalKey{c.Name, c.Utf8(f.Name)}
		if _, dup := lv.ln.globals[k]; dup {
			return fmt.Errorf("vm: duplicate field %s.%s", k.class, k.field)
		}
	}
	if lv.byRef == nil {
		lv.byRef = make(map[classfile.Ref]classfile.MethodID, units)
		lv.ln.methods = make([]*linkedMethod, 0, units)
	}
	lv.classByName[c.Name] = c
	lv.ln.prog.Classes = append(lv.ln.prog.Classes, c)
	for _, f := range c.Fields {
		k := globalKey{c.Name, c.Utf8(f.Name)}
		lv.ln.globals[k] = lv.ln.nglob
		lv.ln.nglob++
	}
	lms := make([]linkedMethod, len(c.Methods)) // one allocation per class
	for i, mm := range c.Methods {
		ref := classfile.Ref{Class: c.Name, Name: c.Utf8(mm.Name)}
		id := classfile.MethodID(len(lv.ln.methods))
		lv.byRef[ref] = id
		lms[i] = linkedMethod{
			id:     id,
			ref:    ref,
			nargs:  mm.NArgs,
			nret:   mm.NRet,
			nloc:   int(mm.MaxLocals),
			nstack: int(mm.MaxStack),
			owner:  c,
			def:    mm,
		}
		lv.ln.methods = append(lv.ln.methods, &lms[i])
	}
	return nil
}

// Classes reports how many classes have been added (for stats).
func (lv *LiveLinked) Classes() int {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return len(lv.classByName)
}

// Methods reports how many methods have been registered (for stats).
func (lv *LiveLinked) Methods() int {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return len(lv.ln.methods)
}

// ensureLink decodes and links lm's body if it has not been yet. The
// caller must have passed the gate for lm, guaranteeing def.Code is
// written and stable. Only the executing goroutine calls this.
func (lv *LiveLinked) ensureLink(lm *linkedMethod) error {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if lm.code != nil {
		return nil
	}
	return linkCode(lm.owner, lm.def, lm, lv.ls, liveResolver{lv})
}

// pendingAt returns the pending table entry for an unresolved pseudo-op.
// The table is append-only and entries are immutable, and only the
// executing goroutine appends (inside ensureLink), so no lock is needed.
func (lv *LiveLinked) pendingAt(i int32) pendingRef { return lv.pending[i] }

// tryInvoke resolves a pending call once its class has linked. Caller
// holds lv.mu.
func (lv *LiveLinked) tryInvoke(p pendingRef) (linkedInstr, error) {
	id, ok := lv.byRef[classfile.Ref{Class: p.class, Name: p.name}]
	if !ok {
		return linkedInstr{}, fmt.Errorf("call to undefined %s.%s", p.class, p.name)
	}
	lm := lv.ln.methods[id]
	if lm.nargs != p.nargs || lm.nret != p.nret {
		return linkedInstr{}, fmt.Errorf("call to %s.%s with descriptor %q, target has (%d)->%d",
			p.class, p.name, p.desc, lm.nargs, lm.nret)
	}
	return linkedInstr{op: bytecode.INVOKE, a: int32(id), nargs: int8(p.nargs), nret: int8(p.nret)}, nil
}

// tryStatic resolves a pending static field access. Caller holds lv.mu.
func (lv *LiveLinked) tryStatic(op bytecode.Op, p pendingRef) (linkedInstr, error) {
	slot, ok := lv.ln.globals[globalKey{p.class, p.name}]
	if !ok {
		return linkedInstr{}, fmt.Errorf("access to undefined field %s.%s", p.class, p.name)
	}
	ro := bytecode.GETSTATIC
	if op == xPutStaticU {
		ro = bytecode.PUTSTATIC
	}
	return linkedInstr{op: ro, a: int32(slot)}, nil
}

// liveResolver links against whatever classes have arrived; references
// into classes still in flight become patchable pseudo-ops instead of
// link errors. Caller (ensureLink) holds lv.mu.
type liveResolver struct{ lv *LiveLinked }

func (r liveResolver) invoke(class, name, desc string, na, nr int) (linkedInstr, error) {
	ref := classfile.Ref{Class: class, Name: name}
	if id, ok := r.lv.byRef[ref]; ok {
		lm := r.lv.ln.methods[id]
		if lm.nargs != na || lm.nret != nr {
			return linkedInstr{}, fmt.Errorf("call to %s.%s with descriptor %q, target has (%d)->%d",
				class, name, desc, lm.nargs, lm.nret)
		}
		return linkedInstr{op: bytecode.INVOKE, a: int32(id), nargs: int8(na), nret: int8(nr)}, nil
	}
	if _, present := r.lv.classByName[class]; present {
		return linkedInstr{}, fmt.Errorf("call to undefined %s.%s", class, name)
	}
	r.lv.pending = append(r.lv.pending, pendingRef{class: class, name: name, desc: desc, nargs: na, nret: nr})
	return linkedInstr{op: xInvokeU, a: int32(len(r.lv.pending) - 1), nargs: int8(na), nret: int8(nr)}, nil
}

func (r liveResolver) static(op bytecode.Op, class, name string) (linkedInstr, error) {
	if slot, ok := r.lv.ln.globals[globalKey{class, name}]; ok {
		return linkedInstr{op: op, a: int32(slot)}, nil
	}
	if _, present := r.lv.classByName[class]; present {
		return linkedInstr{}, fmt.Errorf("access to undefined field %s.%s", class, name)
	}
	u := xGetStaticU
	if op == bytecode.PUTSTATIC {
		u = xPutStaticU
	}
	r.lv.pending = append(r.lv.pending, pendingRef{class: class, name: name})
	return linkedInstr{op: u, a: int32(len(r.lv.pending) - 1)}, nil
}

// Run waits at the gate for the main class, then executes. Execution
// overlaps with whatever part of the stream is still arriving; every
// first use of a method blocks at the gate until its bytes are in.
func (lv *LiveLinked) Run(opts Options) (*Machine, error) {
	mainRef := lv.ln.prog.Main()
	if err := lv.gate.AwaitClass(mainRef.Class); err != nil {
		return nil, fmt.Errorf("vm: waiting for entry class %q: %w", mainRef.Class, err)
	}
	lv.mu.Lock()
	id, ok := lv.byRef[mainRef]
	if ok {
		lv.ln.main = id
	}
	lv.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("vm: program %q has no entry point %v", lv.ln.prog.Name, mainRef)
	}
	return lv.ln.Run(opts)
}

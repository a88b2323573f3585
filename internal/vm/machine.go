package vm

import (
	"errors"
	"fmt"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
)

// slotv is one stack or local slot: an integer or an array reference.
type slotv struct {
	i   int64
	arr []int64
}

// Segment is a maximal run of instructions executed within one method
// between control transfers. The overlap simulator replays the segment
// trace, so instruction-level overlap accounting never requires
// re-interpreting the program.
type Segment struct {
	M classfile.MethodID
	N int64
}

// Profile is the instrumentation output of one run (the role the BIT tool
// played in the paper).
type Profile struct {
	// FirstUse lists methods in the order of their first invocation.
	FirstUse []classfile.MethodID
	// MethodInstrs is the dynamic instruction count per MethodID.
	MethodInstrs []int64
	// CoveredBytes is the number of distinct code bytes each method
	// executed at least once ("unique bytes" in the paper's
	// profile-driven transfer schedule).
	CoveredBytes []int
	// TotalInstrs is the dynamic instruction count of the run.
	TotalInstrs int64
}

// Executed returns how many methods were invoked at least once.
func (p *Profile) Executed() int { return len(p.FirstUse) }

// Options configures a run.
type Options struct {
	// Args are passed to main as its parameters.
	Args []int64
	// Trace enables segment-trace collection.
	Trace bool
	// MaxSteps bounds execution (0 = default 1e10).
	MaxSteps int64
	// MaxFrames bounds call depth (0 = default 65536).
	MaxFrames int
	// OnFirstUse, when non-nil, observes each method's first invocation
	// after its availability gate (if any) has been crossed and its body
	// linked. It runs on the execution goroutine, so it must be cheap
	// and must not call back into the machine.
	OnFirstUse func(classfile.Ref)
}

// RuntimeError describes a trap during execution.
type RuntimeError struct {
	Method classfile.Ref
	PC     int32
	Msg    string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("vm: %v at instr %d: %s", e.Method, e.PC, e.Msg)
}

// ErrMaxSteps is wrapped by the error returned when MaxSteps is exceeded.
var ErrMaxSteps = errors.New("vm: step budget exhausted")

// Machine holds the state and instrumentation results of one run.
type Machine struct {
	ln *Linked
	// meths is the machine's private view of ln.methods. In live mode
	// the loader goroutine appends to ln.methods under the live lock, so
	// the hot loop reads this snapshot and refreshes it (under the lock)
	// only at resolution points where new methods can become reachable.
	meths   []*linkedMethod
	globals []slotv
	prof    Profile
	trace   []Segment
	invoked []bool
	covered [][]bool
	// onFirstUse is Options.OnFirstUse, captured for firstUse.
	onFirstUse func(classfile.Ref)
}

type frame struct {
	m     *linkedMethod
	pc    int32
	base  int // locals base index in the value stack
	stop  int // operand stack base (= base + m.nloc)
	segAt int64
}

// Run links nothing new — it executes the already-linked program once and
// returns the finished machine with its profile (and trace, if enabled).
func (ln *Linked) Run(opts Options) (*Machine, error) {
	// In live mode the loader may still be appending classes; size the
	// machine from a consistent snapshot and grow on demand later.
	if ln.live != nil {
		ln.live.mu.Lock()
	}
	m := &Machine{
		ln:      ln,
		meths:   ln.methods[:len(ln.methods):len(ln.methods)],
		globals: make([]slotv, ln.nglob),
		invoked: make([]bool, len(ln.methods)),
		covered: make([][]bool, len(ln.methods)),
	}
	m.prof.MethodInstrs = make([]int64, len(ln.methods))
	m.prof.CoveredBytes = make([]int, len(ln.methods))
	if ln.live != nil {
		ln.live.mu.Unlock()
	}
	err := m.run(opts)
	if err != nil {
		return m, err
	}
	return m, nil
}

func (m *Machine) trap(f *frame, format string, args ...any) error {
	return &RuntimeError{Method: f.m.ref, PC: f.pc - 1, Msg: fmt.Sprintf(format, args...)}
}

func (m *Machine) run(opts Options) error {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1e10
	}
	maxFrames := opts.MaxFrames
	if maxFrames <= 0 {
		maxFrames = 65536
	}
	m.onFirstUse = opts.OnFirstUse

	entry := m.meths[m.ln.main]
	if len(opts.Args) != entry.nargs {
		return fmt.Errorf("vm: main takes %d args, got %d", entry.nargs, len(opts.Args))
	}

	// The value stack starts at what the entry frame needs and append
	// grows it geometrically, so a shallow run does not pay for a deep
	// one's reservation.
	stack := make([]slotv, 0, entry.nloc+entry.nstack)
	grow := func(n int) {
		for len(stack) < n {
			stack = append(stack, slotv{})
		}
	}

	frames := make([]frame, 1, 64)
	fr := &frames[0]
	*fr = frame{m: entry}
	grow(entry.nloc + entry.nstack)
	for i, a := range opts.Args {
		stack[i] = slotv{i: a}
	}
	fr.stop = entry.nloc
	sp := fr.stop

	if err := m.firstUse(entry.id); err != nil {
		return err
	}
	steps := int64(0)

	flushSeg := func(f *frame) {
		if opts.Trace && steps > f.segAt {
			m.trace = append(m.trace, Segment{M: f.m.id, N: steps - f.segAt})
		}
	}

	for {
		if fr.pc < 0 || int(fr.pc) >= len(fr.m.code) {
			return m.trap(fr, "pc out of range")
		}
		in := fr.m.code[fr.pc]
		fr.pc++
		steps++
		m.prof.MethodInstrs[fr.m.id]++
		cov := m.covered[fr.m.id]
		if !cov[fr.pc-1] {
			cov[fr.pc-1] = true
			m.prof.CoveredBytes[fr.m.id] += int(in.width)
		}
		if steps > maxSteps {
			m.prof.TotalInstrs = steps
			return fmt.Errorf("%w: %d steps in %q", ErrMaxSteps, maxSteps, m.ln.prog.Name)
		}

		switch in.op {
		case bytecode.NOP:

		case bytecode.BIPUSH, bytecode.SIPUSH, bytecode.IPUSH:
			grow(sp + 1)
			stack[sp] = slotv{i: int64(in.a)}
			sp++
		case xLdcInt:
			grow(sp + 1)
			stack[sp] = slotv{i: m.ln.consts[in.a]}
			sp++
		case xLdcStr:
			s := m.ln.strs[in.a]
			arr := make([]int64, len(s))
			for i := 0; i < len(s); i++ {
				arr[i] = int64(s[i])
			}
			grow(sp + 1)
			stack[sp] = slotv{arr: arr}
			sp++

		case bytecode.LOAD:
			grow(sp + 1)
			stack[sp] = stack[fr.base+int(in.a)]
			sp++
		case bytecode.STORE:
			sp--
			stack[fr.base+int(in.a)] = stack[sp]
		case bytecode.IINC:
			stack[fr.base+int(in.a)].i++

		case bytecode.IADD:
			sp--
			stack[sp-1].i += stack[sp].i
		case bytecode.ISUB:
			sp--
			stack[sp-1].i -= stack[sp].i
		case bytecode.IMUL:
			sp--
			stack[sp-1].i *= stack[sp].i
		case bytecode.IDIV:
			sp--
			if stack[sp].i == 0 {
				return m.trap(fr, "division by zero")
			}
			stack[sp-1].i /= stack[sp].i
		case bytecode.IREM:
			sp--
			if stack[sp].i == 0 {
				return m.trap(fr, "remainder by zero")
			}
			stack[sp-1].i %= stack[sp].i
		case bytecode.INEG:
			stack[sp-1].i = -stack[sp-1].i
		case bytecode.IAND:
			sp--
			stack[sp-1].i &= stack[sp].i
		case bytecode.IOR:
			sp--
			stack[sp-1].i |= stack[sp].i
		case bytecode.IXOR:
			sp--
			stack[sp-1].i ^= stack[sp].i
		case bytecode.ISHL:
			sp--
			stack[sp-1].i <<= uint64(stack[sp].i) & 63
		case bytecode.ISHR:
			sp--
			stack[sp-1].i >>= uint64(stack[sp].i) & 63

		case bytecode.DUP:
			grow(sp + 1)
			stack[sp] = stack[sp-1]
			sp++
		case bytecode.POP:
			sp--
		case bytecode.SWAP:
			stack[sp-1], stack[sp-2] = stack[sp-2], stack[sp-1]

		case bytecode.IFEQ:
			sp--
			if stack[sp].i == 0 {
				fr.pc = in.a
			}
		case bytecode.IFNE:
			sp--
			if stack[sp].i != 0 {
				fr.pc = in.a
			}
		case bytecode.IFLT:
			sp--
			if stack[sp].i < 0 {
				fr.pc = in.a
			}
		case bytecode.IFGE:
			sp--
			if stack[sp].i >= 0 {
				fr.pc = in.a
			}
		case bytecode.IFGT:
			sp--
			if stack[sp].i > 0 {
				fr.pc = in.a
			}
		case bytecode.IFLE:
			sp--
			if stack[sp].i <= 0 {
				fr.pc = in.a
			}

		case bytecode.IFCMPEQ:
			sp -= 2
			if stack[sp].i == stack[sp+1].i {
				fr.pc = in.a
			}
		case bytecode.IFCMPNE:
			sp -= 2
			if stack[sp].i != stack[sp+1].i {
				fr.pc = in.a
			}
		case bytecode.IFCMPLT:
			sp -= 2
			if stack[sp].i < stack[sp+1].i {
				fr.pc = in.a
			}
		case bytecode.IFCMPGE:
			sp -= 2
			if stack[sp].i >= stack[sp+1].i {
				fr.pc = in.a
			}
		case bytecode.IFCMPGT:
			sp -= 2
			if stack[sp].i > stack[sp+1].i {
				fr.pc = in.a
			}
		case bytecode.IFCMPLE:
			sp -= 2
			if stack[sp].i <= stack[sp+1].i {
				fr.pc = in.a
			}

		case bytecode.GOTO:
			fr.pc = in.a

		case bytecode.INVOKE:
			if len(frames) >= maxFrames {
				return m.trap(fr, "call depth exceeds %d frames", maxFrames)
			}
			if int(in.a) >= len(m.meths) {
				m.growTo(int(in.a) + 1)
			}
			callee := m.meths[in.a]
			flushSeg(fr)
			base := sp - int(in.nargs)
			frames = append(frames, frame{
				m:     callee,
				base:  base,
				stop:  base + callee.nloc,
				segAt: steps,
			})
			fr = &frames[len(frames)-1]
			grow(fr.stop + callee.nstack)
			// Zero locals beyond the arguments, clearing stale refs.
			for i := base + int(in.nargs); i < fr.stop; i++ {
				stack[i] = slotv{}
			}
			sp = fr.stop
			if err := m.firstUse(callee.id); err != nil {
				return err
			}

		case bytecode.RETURN, bytecode.IRETURN:
			flushSeg(fr)
			var ret slotv
			if in.op == bytecode.IRETURN {
				ret = stack[sp-1]
			}
			base := fr.base
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				m.prof.TotalInstrs = steps
				return nil
			}
			fr = &frames[len(frames)-1]
			fr.segAt = steps
			sp = base
			if in.op == bytecode.IRETURN {
				stack[sp] = ret
				sp++
			}

		case bytecode.GETSTATIC:
			// Live mode: the slot may belong to a class that arrived
			// after the machine sized its globals array.
			for int(in.a) >= len(m.globals) {
				m.globals = append(m.globals, slotv{})
			}
			grow(sp + 1)
			stack[sp] = m.globals[in.a]
			sp++
		case bytecode.PUTSTATIC:
			for int(in.a) >= len(m.globals) {
				m.globals = append(m.globals, slotv{})
			}
			sp--
			m.globals[in.a] = stack[sp]

		case bytecode.NEWARRAY:
			n := stack[sp-1].i
			if n < 0 || n > 1<<28 {
				return m.trap(fr, "newarray length %d out of range", n)
			}
			stack[sp-1] = slotv{arr: make([]int64, n)}
		case bytecode.ALOAD:
			sp--
			a := stack[sp-1].arr
			i := stack[sp].i
			if a == nil {
				return m.trap(fr, "aload on non-array")
			}
			if i < 0 || i >= int64(len(a)) {
				return m.trap(fr, "array index %d out of range [0,%d)", i, len(a))
			}
			stack[sp-1] = slotv{i: a[i]}
		case bytecode.ASTORE:
			sp -= 3
			a := stack[sp].arr
			i := stack[sp+1].i
			if a == nil {
				return m.trap(fr, "astore on non-array")
			}
			if i < 0 || i >= int64(len(a)) {
				return m.trap(fr, "array index %d out of range [0,%d)", i, len(a))
			}
			a[i] = stack[sp+2].i
		case bytecode.ARRAYLEN:
			if stack[sp-1].arr == nil {
				return m.trap(fr, "arraylen on non-array")
			}
			stack[sp-1] = slotv{i: int64(len(stack[sp-1].arr))}

		case bytecode.HALT:
			flushSeg(fr)
			m.prof.TotalInstrs = steps
			return nil

		default:
			if m.ln.live != nil && in.op >= xInvokeU && in.op <= xPutStaticU {
				// First execution of a reference the live linker could
				// not resolve at decode time: block until the target
				// class links, patch the instruction in place, and rerun
				// it. The decrements undo this iteration's accounting so
				// the patched op counts exactly once.
				ri, err := m.resolveOp(fr, in)
				if err != nil {
					return err
				}
				fr.m.code[fr.pc-1] = ri
				fr.pc--
				steps--
				m.prof.MethodInstrs[fr.m.id]--
				continue
			}
			return m.trap(fr, "bad opcode %d", byte(in.op))
		}
	}
}

// resolveOp resolves one unresolved pseudo-op. It blocks at the gate
// until the referenced class is linked, then looks the target up under
// the live lock and refreshes the machine's snapshots.
func (m *Machine) resolveOp(fr *frame, in linkedInstr) (linkedInstr, error) {
	lv := m.ln.live
	p := lv.pendingAt(in.a)
	if err := lv.gate.AwaitClass(p.class); err != nil {
		// Surface a dead or deadlined transfer as a clean per-reference
		// error naming what execution was blocked on, not a hang.
		return linkedInstr{}, fmt.Errorf("vm: resolving reference to class %q: %w", p.class, err)
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	var ri linkedInstr
	var err error
	if in.op == xInvokeU {
		ri, err = lv.tryInvoke(p)
		m.meths = m.ln.methods[:len(m.ln.methods):len(m.ln.methods)]
	} else {
		ri, err = lv.tryStatic(in.op, p)
		for err == nil && len(m.globals) <= int(ri.a) {
			m.globals = append(m.globals, slotv{})
		}
	}
	if err != nil {
		return linkedInstr{}, m.trap(fr, "%v", err)
	}
	ri.width = in.width
	return ri, nil
}

func (m *Machine) firstUse(id classfile.MethodID) error {
	if int(id) >= len(m.invoked) {
		m.growTo(int(id) + 1)
	}
	if m.invoked[id] {
		return nil
	}
	lm := m.meths[id]
	if lv := m.ln.live; lv != nil {
		// Non-strict gate: block until the method's bytes (and delimiter)
		// have arrived and verified, then link its body lazily. A gate
		// failure (dead stream, deadline) is reported per invocation so
		// the caller can see exactly which first use could not proceed.
		if err := lv.gate.AwaitMethod(lm.ref); err != nil {
			return fmt.Errorf("vm: first invocation of %v: %w", lm.ref, err)
		}
		if err := lv.ensureLink(lm); err != nil {
			return err
		}
	}
	m.invoked[id] = true
	m.prof.FirstUse = append(m.prof.FirstUse, id)
	m.covered[id] = make([]bool, len(lm.code))
	if m.onFirstUse != nil {
		m.onFirstUse(lm.ref)
	}
	return nil
}

// growTo extends the per-method instrumentation arrays (and, in live
// mode, the method snapshot) to cover ids below n. The eager linker
// sizes everything up front, so this only fires in live mode.
func (m *Machine) growTo(n int) {
	if lv := m.ln.live; lv != nil {
		lv.mu.Lock()
		m.meths = m.ln.methods[:len(m.ln.methods):len(m.ln.methods)]
		lv.mu.Unlock()
	}
	for len(m.invoked) < n {
		m.invoked = append(m.invoked, false)
		m.covered = append(m.covered, nil)
		m.prof.MethodInstrs = append(m.prof.MethodInstrs, 0)
		m.prof.CoveredBytes = append(m.prof.CoveredBytes, 0)
	}
}

// Profile returns the run's instrumentation results.
func (m *Machine) Profile() *Profile { return &m.prof }

// Trace returns the segment trace (nil unless Options.Trace was set).
func (m *Machine) Trace() []Segment { return m.trace }

// Steps returns the dynamic instruction count.
func (m *Machine) Steps() int64 { return m.prof.TotalInstrs }

// lookupGlobal resolves a static field to its slot, locking the live
// link state when the program is still growing.
func (m *Machine) lookupGlobal(class, field string) (int, bool) {
	if lv := m.ln.live; lv != nil {
		lv.mu.Lock()
		defer lv.mu.Unlock()
	}
	slot, ok := m.ln.globals[globalKey{class, field}]
	return slot, ok
}

// Global reads static field class.field as an integer.
func (m *Machine) Global(class, field string) (int64, error) {
	slot, ok := m.lookupGlobal(class, field)
	if !ok {
		return 0, fmt.Errorf("vm: no field %s.%s", class, field)
	}
	if slot >= len(m.globals) {
		// Field arrived after the run ended without ever being touched;
		// its value is the zero it would have held.
		return 0, nil
	}
	return m.globals[slot].i, nil
}

// GlobalArray reads static field class.field as an array (nil if the
// field holds an integer or was never assigned an array).
func (m *Machine) GlobalArray(class, field string) ([]int64, error) {
	slot, ok := m.lookupGlobal(class, field)
	if !ok {
		return nil, fmt.Errorf("vm: no field %s.%s", class, field)
	}
	if slot >= len(m.globals) {
		return nil, nil
	}
	return m.globals[slot].arr, nil
}

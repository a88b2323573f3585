package vm

import (
	"errors"
	"fmt"
	"math"

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
// played in the paper). It is defined only for a run that returned a nil
// error: the interpreter charges instructions a basic block and a segment
// at a time, so a run that fails part-way leaves partial counts.
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
	// MaxSteps bounds execution (0 = default 1e10): a run that needs S
	// instructions succeeds exactly when MaxSteps >= S.
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

// What one run may allocate: a verified program is bounded in steps and
// frames by Options, and in array memory by these. An array holds at most
// maxArrayLen slots (2 GiB), and the arrays that NEWARRAY and string
// constants create hold at most maxRunSlots together, whether or not
// they are still live.
const (
	maxArrayLen = 1 << 28
	maxRunSlots = 1 << 28
)

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
	covered [][]bool // per method, indexed by block leader
	// onFirstUse is Options.OnFirstUse, captured for firstUse.
	onFirstUse func(classfile.Ref)
	tracing    bool
	maxSteps   int64
	// slots counts the array slots the run has allocated, against
	// maxRunSlots.
	slots int64
	// stopPC is MaxInt32 until a block is entered that does not fit in
	// what is left of the step budget. The run is then bound to end
	// inside that block, and stopPC is the index of its first
	// instruction beyond the budget: a trap before it is the run's error,
	// and anything at or after it is ErrMaxSteps, exactly as counting
	// one instruction at a time would report.
	stopPC int32
}

type frame struct {
	m     *linkedMethod
	pc    int32
	base  int // locals base index in the value stack
	segAt int64
	cov   []bool // Machine.covered of m, marked per block leader
}

// Run links nothing new — it executes the already-linked program once and
// returns the finished machine with its profile (and trace, if enabled).
func (ln *Linked) Run(opts Options) (*Machine, error) {
	// In live mode the loader may still be appending classes; size the
	// machine from a consistent snapshot and grow on demand later, within
	// the capacity the live linker reserved for the whole program (the
	// eager linker's table is exactly full).
	if ln.live != nil {
		ln.live.mu.Lock()
	}
	n, c := len(ln.methods), cap(ln.methods)
	m := &Machine{
		ln:      ln,
		meths:   ln.methods[:n:n],
		globals: make([]slotv, ln.nglob),
		invoked: make([]bool, n, c),
		covered: make([][]bool, n, c),
	}
	m.prof.MethodInstrs = make([]int64, n, c)
	m.prof.CoveredBytes = make([]int, n, c)
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
	if f.pc-1 >= m.stopPC {
		return m.outOfSteps()
	}
	return &RuntimeError{Method: f.m.ref, PC: f.pc - 1, Msg: fmt.Sprintf(format, args...)}
}

func (m *Machine) outOfSteps() error {
	return fmt.Errorf("%w: %d steps in %q", ErrMaxSteps, m.maxSteps, m.ln.prog.Name)
}

// allocate charges n array slots to the run, or traps if they would take
// it past maxRunSlots.
func (m *Machine) allocate(f *frame, n int64) error {
	if m.slots+n > maxRunSlots {
		return m.trap(f, "arrays exceed %d slots in total", maxRunSlots)
	}
	m.slots += n
	return nil
}

// cover records the first entry to the block whose leader is at pc: it
// adds the block's code bytes to its method's covered bytes.
func (m *Machine) cover(f *frame, pc int32) {
	f.cov[pc] = true
	for _, in := range f.m.code[pc : pc+f.m.code[pc].blk] {
		m.prof.CoveredBytes[f.m.id] += int(in.width)
	}
}

// flushSeg closes f's current segment at steps: it charges the
// segment's instructions to f's method and, when tracing, records it.
func (m *Machine) flushSeg(f *frame, steps int64) {
	n := steps - f.segAt
	m.prof.MethodInstrs[f.m.id] += n
	if m.tracing && n > 0 {
		m.trace = append(m.trace, Segment{M: f.m.id, N: n})
	}
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
	m.tracing = opts.Trace
	m.maxSteps = maxSteps
	m.stopPC = math.MaxInt32

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
	sp := entry.nloc

	if err := m.firstUse(entry.id); err != nil {
		return err
	}
	fr.cov = m.covered[entry.id]
	steps := int64(0)

	// Control only enters a block at its leader and, once entered, a
	// block runs to its end unless the run ends inside it; so the leader
	// charges the whole block. The instructions that end a block check
	// the budget themselves where leaving it could be observed: a call, a
	// return, HALT and the end-of-code trap.
	for {
		in := fr.m.code[fr.pc]
		fr.pc++
		if in.blk != 0 {
			steps += int64(in.blk)
			if !fr.cov[fr.pc-1] {
				m.cover(fr, fr.pc-1)
			}
			if steps > maxSteps {
				// The block ends beyond the budget: fail now if the
				// leader does, else mark where the budget runs out.
				before := steps - int64(in.blk)
				if before >= maxSteps {
					return m.outOfSteps()
				}
				m.stopPC = fr.pc - 1 + int32(maxSteps-before)
			}
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
			if err := m.allocate(fr, int64(len(s))); err != nil {
				return err
			}
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
			if steps > maxSteps {
				return m.outOfSteps()
			}
			if len(frames) >= maxFrames {
				return m.trap(fr, "call depth exceeds %d frames", maxFrames)
			}
			if int(in.a) >= len(m.meths) {
				m.growTo(int(in.a) + 1)
			}
			callee := m.meths[in.a]
			m.flushSeg(fr, steps)
			base := sp - int(in.nargs)
			frames = append(frames, frame{
				m:     callee,
				base:  base,
				segAt: steps,
			})
			fr = &frames[len(frames)-1]
			sp = base + callee.nloc // the callee's operand stack base
			grow(sp + callee.nstack)
			// Zero locals beyond the arguments, clearing stale refs.
			for i := base + int(in.nargs); i < sp; i++ {
				stack[i] = slotv{}
			}
			if err := m.firstUse(callee.id); err != nil {
				return err
			}
			fr.cov = m.covered[callee.id]

		case bytecode.RETURN, bytecode.IRETURN, xLoadIreturn, xBipushIreturn:
			if steps > maxSteps {
				return m.outOfSteps()
			}
			m.flushSeg(fr, steps)
			var ret slotv
			switch in.op {
			case bytecode.IRETURN:
				ret = stack[sp-1]
			case xLoadIreturn:
				ret = stack[fr.base+int(in.a)]
			case xBipushIreturn:
				ret = slotv{i: int64(in.a)}
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
			if in.op != bytecode.RETURN {
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
			if n < 0 || n > maxArrayLen {
				return m.trap(fr, "newarray length %d out of range", n)
			}
			if err := m.allocate(fr, n); err != nil {
				return err
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

		// Superinstructions (fuse.go). Each leaves what its run's
		// instructions one after another would, and steps the pc past
		// the run's later entries, or to a trapping member before the
		// trap. Slots above the stack top that the run would push and
		// pop again are not written: verified code cannot read them.
		case xLoadBipushIfcmpne:
			fr.pc += 2
			if stack[fr.base+int(uint8(in.nargs))].i != int64(in.nret) {
				fr.pc = in.a
			}
		case xLoadBipushIfcmpge:
			fr.pc += 2
			if stack[fr.base+int(uint8(in.nargs))].i >= int64(in.nret) {
				fr.pc = in.a
			}
		case xLoadLoadIfcmpge:
			fr.pc += 2
			if stack[fr.base+int(uint8(in.nargs))].i >= stack[fr.base+int(uint8(in.nret))].i {
				fr.pc = in.a
			}
		case xLoadLoadArraylen:
			fr.pc += 2
			grow(sp + 2)
			stack[sp] = stack[fr.base+int(in.a)]
			arr := stack[fr.base+int(uint8(in.nargs))].arr
			if arr == nil {
				return m.trap(fr, "arraylen on non-array")
			}
			stack[sp+1] = slotv{i: int64(len(arr))}
			sp += 2
		case xLoadLoad:
			fr.pc++
			grow(sp + 2)
			stack[sp] = stack[fr.base+int(in.a)]
			stack[sp+1] = stack[fr.base+int(uint8(in.nargs))]
			sp += 2
		case xLoadIaddAload:
			fr.pc += 2
			sp--
			a := stack[sp-1].arr
			i := stack[sp].i + stack[fr.base+int(in.a)].i
			if a == nil {
				return m.trap(fr, "aload on non-array")
			}
			if i < 0 || i >= int64(len(a)) {
				return m.trap(fr, "array index %d out of range [0,%d)", i, len(a))
			}
			stack[sp-1] = slotv{i: a[i]}
		case xLoadIadd:
			fr.pc++
			stack[sp-1].i += stack[fr.base+int(in.a)].i
		case xLoadSipushImul:
			fr.pc += 2
			grow(sp + 1)
			v := stack[fr.base+int(uint8(in.nargs))]
			v.i *= int64(in.a)
			stack[sp] = v
			sp++
		case xStoreLoadLoad:
			fr.pc += 2
			stack[fr.base+int(in.a)] = stack[sp-1]
			stack[sp-1] = stack[fr.base+int(uint8(in.nargs))]
			grow(sp + 1)
			stack[sp] = stack[fr.base+int(uint8(in.nret))]
			sp++
		case xStoreLoad:
			fr.pc++
			stack[fr.base+int(in.a)] = stack[sp-1]
			stack[sp-1] = stack[fr.base+int(uint8(in.nargs))]
		case xIincGoto:
			stack[fr.base+int(uint8(in.nargs))].i++
			fr.pc = in.a
		case xGetstaticBipushAload:
			fr.pc += 2
			for int(in.a) >= len(m.globals) {
				m.globals = append(m.globals, slotv{})
			}
			a := m.globals[in.a].arr
			i := int64(in.nargs)
			if a == nil {
				return m.trap(fr, "aload on non-array")
			}
			if i < 0 || i >= int64(len(a)) {
				return m.trap(fr, "array index %d out of range [0,%d)", i, len(a))
			}
			grow(sp + 1)
			stack[sp] = slotv{i: a[i]}
			sp++
		case xGetstaticBipushImul:
			fr.pc += 2
			for int(in.a) >= len(m.globals) {
				m.globals = append(m.globals, slotv{})
			}
			v := m.globals[in.a]
			v.i *= int64(in.nargs)
			grow(sp + 1)
			stack[sp] = v
			sp++
		case xGetstaticBipush:
			fr.pc++
			for int(in.a) >= len(m.globals) {
				m.globals = append(m.globals, slotv{})
			}
			grow(sp + 2)
			stack[sp] = m.globals[in.a]
			stack[sp+1] = slotv{i: int64(in.nargs)}
			sp += 2
		case xGetstaticLoad:
			fr.pc++
			for int(in.a) >= len(m.globals) {
				m.globals = append(m.globals, slotv{})
			}
			grow(sp + 2)
			stack[sp] = m.globals[in.a]
			stack[sp+1] = stack[fr.base+int(uint8(in.nargs))]
			sp += 2
		case xLdcIntIand:
			fr.pc++
			stack[sp-1].i &= m.ln.consts[in.a]
		case xIaddLdcIntIand:
			fr.pc += 2
			sp--
			stack[sp-1].i = (stack[sp-1].i + stack[sp].i) & m.ln.consts[in.a]
		case xBipushIand:
			fr.pc++
			stack[sp-1].i &= int64(in.a)
		case xBipushIadd:
			fr.pc++
			stack[sp-1].i += int64(in.a)
		case xAloadIfeq:
			sp -= 2
			a := stack[sp].arr
			i := stack[sp+1].i
			if a == nil {
				return m.trap(fr, "aload on non-array")
			}
			if i < 0 || i >= int64(len(a)) {
				return m.trap(fr, "array index %d out of range [0,%d)", i, len(a))
			}
			fr.pc++
			if a[i] == 0 {
				fr.pc = in.a
			}

		case bytecode.HALT:
			if steps > maxSteps {
				return m.outOfSteps()
			}
			m.flushSeg(fr, steps)
			m.prof.TotalInstrs = steps
			return nil

		case xEnd:
			// Fell off the end of the code: report the last
			// instruction, as a range check before the fetch would.
			fr.pc--
			return m.trap(fr, "pc out of range")

		default:
			if m.ln.live != nil && in.op >= xInvokeU && in.op <= xPutStaticU {
				// First execution of a reference the live linker could
				// not resolve at decode time: block until the target
				// class links, patch the instruction in place, and rerun
				// it. A patched leader is entered again, so its block's
				// charge is taken back to count once.
				if fr.pc-1 >= m.stopPC {
					return m.outOfSteps()
				}
				ri, err := m.resolveOp(fr, in)
				if err != nil {
					return err
				}
				fr.m.code[fr.pc-1] = ri
				fr.pc--
				steps -= int64(ri.blk)
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
	ri.width, ri.blk = in.width, in.blk
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
// sizes everything up front, so this only fires in live mode, where the
// arrays already have the live linker's capacity.
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

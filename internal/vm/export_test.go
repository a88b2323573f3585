package vm

import (
	"unsafe"

	"nonstrict/internal/classfile"
)

// LinkedInstrSize is the size of one linked instruction.
const LinkedInstrSize = unsafe.Sizeof(linkedInstr{})

// BlockMarks returns the block-leader mark of every linked instruction of
// method id, the end-of-code sentinel last: the block's length on a
// leader, 0 elsewhere.
func (ln *Linked) BlockMarks(id classfile.MethodID) []int {
	code := ln.methods[id].code
	marks := make([]int, len(code))
	for i, in := range code {
		marks[i] = int(in.blk)
	}
	return marks
}

// Relink runs linkCode over every method of a linked program again,
// through one fresh link state — what the external allocation pin
// measures, since the workloads it needs import this package.
func (ln *Linked) Relink() error {
	ls := newLinkState(ln)
	for _, lm := range ln.methods {
		if err := linkCode(lm, ls); err != nil {
			return err
		}
	}
	return nil
}

// FusedRuns returns the first index and the length of every fused run in
// the linked code of method id (none before the method links).
func (ln *Linked) FusedRuns(id classfile.MethodID) [][2]int {
	var runs [][2]int
	for i, in := range ln.methods[id].code {
		if in.op > xEnd {
			runs = append(runs, [2]int{i, len(fusions[in.op-xEnd-1].run)})
		}
	}
	return runs
}

// Unresolved reports, per linked instruction of method id, whether it is
// a cross-class reference the linker left unresolved.
func (ln *Linked) Unresolved(id classfile.MethodID) []bool {
	code := ln.methods[id].code
	u := make([]bool, len(code))
	for i, in := range code {
		u[i] = in.op >= xInvokeU && in.op <= xPutStaticU
	}
	return u
}

// Classes reports how many classes have been added.
func (ln *Linked) Classes() int {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return len(ln.prog.Classes)
}

// Methods reports how many methods have been added.
func (ln *Linked) Methods() int {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return len(ln.methods)
}

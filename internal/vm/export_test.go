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

// Relink runs linkCode over every method of an eagerly linked program
// again, through one link state — what the external allocation pin
// measures, since the workloads it needs import this package.
func (ln *Linked) Relink() error {
	ls := newLinkState(ln)
	var res opResolver = eagerResolver{ln: ln, ix: ln.index}
	for id := classfile.MethodID(0); int(id) < ln.index.Len(); id++ {
		if err := linkCode(ln.index.Class(id), ln.index.Method(id), ln.methods[id], ls, res); err != nil {
			return err
		}
	}
	return nil
}

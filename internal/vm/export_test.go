package vm

import "nonstrict/internal/classfile"

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

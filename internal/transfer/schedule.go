package transfer

import (
	"fmt"

	"nonstrict/internal/classfile"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
)

// Dep is one start trigger: the dependent class may begin transfer once
// Bytes bytes of class Class have been delivered.
type Dep struct {
	Class string
	Bytes int
}

// Schedule is the parallel-transfer plan (§5.1): for each class, the set
// of byte thresholds in earlier-first-use classes that gate its start.
// Classes with no dependencies (the main class) start at cycle zero.
type Schedule struct {
	// ClassOrder lists classes in first-use order; it is also the start
	// priority when several classes become eligible together.
	ClassOrder []string
	// Deps maps each class to its triggers (empty for the first class).
	Deps map[string][]Dep
}

// BuildSchedule runs the paper's greedy algorithm. Class B depends on
// every class A whose first method executes before B's first method; the
// trigger threshold is the number of "unique bytes" of A predicted to be
// consumed before B is first needed — the running sum of A's units in
// plan (restructure.Plan, the one files came from) through the last
// A-method preceding B's first use.
//
// covered selects the estimate: nil uses static sizes (the SCG variant);
// otherwise covered[id] is the profiled unique executed code bytes of
// method id (the Train/Test variants), and each body unit counts covered
// code bytes in place of its full code bytes.
func BuildSchedule(order *reorder.Order, ix *classfile.Index, files map[string]*File,
	plan []restructure.Unit, covered []int) (*Schedule, error) {

	s := &Schedule{
		ClassOrder: order.ClassOrder(ix),
		Deps:       make(map[string][]Dep),
	}

	// consumed[class] lists, per body unit of the class in plan order,
	// its method's order position and the predicted bytes of the class
	// consumed once that method has first-run.
	type mark struct{ rank, bytes int }
	consumed := make([][]mark, len(s.ClassOrder))
	sums := make([]int, len(s.ClassOrder))
	for _, u := range plan {
		sums[u.Class] += u.Len
		if u.Kind != restructure.Body {
			continue
		}
		id := ix.ID(u.Method)
		if id == classfile.NoMethod {
			return nil, fmt.Errorf("transfer: schedule: unknown method %v", u.Method)
		}
		if covered != nil {
			sums[u.Class] += covered[id] - len(ix.Method(id).Code)
		}
		consumed[u.Class] = append(consumed[u.Class], mark{order.Rank[id], sums[u.Class]})
	}

	for _, cls := range s.ClassOrder {
		b := consumed[ix.ClassIndex(cls)]
		var deps []Dep
		for _, a := range s.ClassOrder {
			as := consumed[ix.ClassIndex(a)]
			if a == cls || len(b) == 0 || len(as) == 0 || as[0].rank >= b[0].rank {
				continue // A does not execute before B's first method
			}
			// A's bytes through its last method ranked before B's first.
			bytes := 0
			for _, m := range as {
				if m.rank >= b[0].rank {
					break
				}
				bytes = m.bytes
			}
			if max := files[a].Size; bytes > max {
				bytes = max
			}
			deps = append(deps, Dep{Class: a, Bytes: bytes})
		}
		s.Deps[cls] = deps
	}
	return s, nil
}

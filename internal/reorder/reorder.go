// Package reorder predicts the first-use order of a program's methods.
//
// The paper evaluates two predictors (§4): a static call-graph estimator —
// a modified depth-first traversal of the interprocedural control-flow
// graph that prefers paths containing more static loops and walks loop
// bodies before loop exits — and a profile-guided predictor that replays
// the first-use order observed on a training input, falling back to the
// static order for methods the profile never saw. The resulting Order is
// the input to class-file restructuring and to the transfer schedules.
package reorder

import (
	"cmp"
	"fmt"
	"slices"

	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
)

// Order is a predicted first-use permutation of all methods.
type Order struct {
	// Methods lists every MethodID, earliest-predicted first.
	Methods []classfile.MethodID
	// Rank is the inverse permutation: Rank[id] is the position of id.
	Rank []int
}

func newOrder(methods []classfile.MethodID, n int) *Order {
	o := &Order{Methods: methods, Rank: make([]int, n)}
	for i := range o.Rank {
		o.Rank[i] = -1
	}
	for pos, id := range methods {
		o.Rank[id] = pos
	}
	return o
}

// Validate checks that the order is a complete permutation.
func (o *Order) Validate(ix *classfile.Index) error {
	if len(o.Methods) != ix.Len() {
		return fmt.Errorf("reorder: order has %d methods, program has %d", len(o.Methods), ix.Len())
	}
	seen := make([]bool, ix.Len())
	for _, id := range o.Methods {
		if int(id) < 0 || int(id) >= ix.Len() {
			return fmt.Errorf("reorder: method id %d out of range", id)
		}
		if seen[id] {
			return fmt.Errorf("reorder: duplicate method %v", ix.Ref(id))
		}
		seen[id] = true
	}
	return nil
}

// Declaration returns the identity order: methods as declared in their
// class files, classes in program order. This is the unrestructured
// baseline.
func Declaration(ix *classfile.Index) *Order {
	ms := make([]classfile.MethodID, ix.Len())
	for i := range ms {
		ms[i] = classfile.MethodID(i)
	}
	return newOrder(ms, ix.Len())
}

// Static computes the first-use order with the paper's static call-graph
// estimation (§4.1) over graphs, the CFGs of the program's methods: a
// method with no graph takes its place in the order but is not walked.
// A nil graphs is StaticLazy. Methods unreachable from main are appended
// in declaration order.
func Static(ix *classfile.Index, graphs map[classfile.MethodID]*cfg.Graph) (*Order, error) {
	main := ix.ID(ix.Program().Main())
	if main == classfile.NoMethod {
		return nil, fmt.Errorf("reorder: program has no main")
	}
	t := &traversal{ix: ix, graphs: graphs, seen: make([]bool, ix.Len()),
		order: make([]classfile.MethodID, 0, ix.Len())}
	t.visitMethod(main)
	if t.err != nil {
		return nil, t.err
	}
	for id := classfile.MethodID(0); int(id) < ix.Len(); id++ {
		if !t.seen[id] {
			t.order = append(t.order, id)
		}
	}
	return newOrder(t.order, ix.Len()), nil
}

// StaticLazy is Static over every method's CFG, built as the walk first
// reaches the method. The walk holds one graph per call depth and
// rebuilds it for the next method entered at that depth once the
// method's walk has returned, so the CFGs in memory are those of the
// methods on the walk's call stack, and a method the walk never
// reaches gets no graph. Its order is Static's over cfg.BuildAll's.
func StaticLazy(ix *classfile.Index) (*Order, error) { return Static(ix, nil) }

// traversal is one Static call. A method's traversal is suspended at
// each call site while the callee's runs, so visited, exits and normal
// are stacks: each method, and each block's successor list, takes the
// region above what the suspended traversals hold and gives it back
// when it is done. So is frames, when the traversal builds its graphs.
type traversal struct {
	ix      *classfile.Index
	graphs  map[classfile.MethodID]*cfg.Graph // nil: build into frames
	builder cfg.Builder
	frames  []*cfg.Graph // per method on the call stack, its graph
	depth   int          // methods on the call stack
	err     error        // the first graph that failed to build
	seen    []bool
	order   []classfile.MethodID
	visited []bool // per method on the call stack, its blocks
	exits   []pend // per method on the call stack, its deferred loop exits
	normal  []int  // per block being walked, its successors to follow
}

// visitMethod appends m to the first-use order on first encounter and
// traverses its CFG, recursing into callees as they are encountered —
// the interprocedural edges of the paper's combined flow graph.
func (t *traversal) visitMethod(m classfile.MethodID) {
	if t.seen[m] || t.err != nil {
		return
	}
	t.seen[m] = true
	t.order = append(t.order, m)
	g := t.graph(m)
	if g == nil {
		return
	}
	t.depth++
	t.traverseCFG(g)
	t.depth--
}

// graph returns m's CFG: the caller's, or m's built into the graph of
// the current call depth, which no suspended walk is reading.
func (t *traversal) graph(m classfile.MethodID) *cfg.Graph {
	if t.graphs != nil {
		return t.graphs[m]
	}
	if t.depth == len(t.frames) {
		t.frames = append(t.frames, new(cfg.Graph))
	}
	g := t.frames[t.depth]
	if err := t.builder.BuildInto(g, t.ix.Class(m), t.ix.Method(m)); err != nil {
		t.err = err
		return nil
	}
	return g
}

// pend is a deferred loop-exit continuation: the (basic block, loop
// header) pair the paper pushes while the loop body is being walked.
type pend struct {
	block  int
	header int
}

// traverseCFG performs the modified DFS of §4.1 on one method body.
func (t *traversal) traverseCFG(g *cfg.Graph) {
	base := len(t.visited)
	t.visited = slices.Grow(t.visited, len(g.Blocks))[:base+len(g.Blocks)]
	visited := t.visited[base:]
	clear(visited)
	exitsBase := len(t.exits)

	t.walk(g, visited, 0)
	// Loop bodies are exhausted; resume at deferred loop exits, most
	// recently deferred first (the paper pops the pair stack).
	for len(t.exits) > exitsBase {
		p := t.exits[len(t.exits)-1]
		t.exits = t.exits[:len(t.exits)-1]
		t.walk(g, visited, p.block)
	}
	t.visited = t.visited[:base]
}

// walk visits block b of g and, depth first, the blocks it leads to.
func (t *traversal) walk(g *cfg.Graph, visited []bool, b int) {
	if visited[b] {
		return
	}
	visited[b] = true
	blk := g.Blocks[b]

	// Procedure calls are encountered in instruction order; each
	// first encounter fixes the callee's first-use position.
	for _, cs := range blk.Calls {
		if id := t.ix.ID(cs.Target); id != classfile.NoMethod {
			t.visitMethod(id)
		}
	}

	// Classify successor edges. Back edges are never followed; edges
	// leaving the innermost enclosing loop are deferred on the pair
	// stack so every block inside the loop is processed first.
	inner := g.InnermostLoopOf(b)
	base := len(t.normal)
	for _, e := range blk.Succs {
		if e.Back {
			continue
		}
		if inner >= 0 && !g.InLoop(e.To, inner) {
			t.exits = append(t.exits, pend{block: e.To, header: inner})
			continue
		}
		t.normal = append(t.normal, e.To)
	}
	normal := t.normal[base:]

	// Forward-branch priority: follow the path with the greatest
	// number of static loops first; break ties toward the longer
	// path, then toward the fall-through (lower block ID).
	slices.SortStableFunc(normal, func(x, y int) int {
		if c := cmp.Compare(g.LoopsReachable(y), g.LoopsReachable(x)); c != 0 {
			return c
		}
		if c := cmp.Compare(g.StaticInstrs(y), g.StaticInstrs(x)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	for _, s := range normal {
		t.walk(g, visited, s)
	}
	t.normal = t.normal[:base]
}

// StaticPlain is the ablation baseline for Static: a plain depth-first
// traversal that visits successors in textual order, with no loop
// prioritization and no deferral of loop exits. Comparing its quality
// against Static isolates the value of the paper's §4.1 heuristics.
func StaticPlain(ix *classfile.Index, graphs map[classfile.MethodID]*cfg.Graph) (*Order, error) {
	main := ix.ID(ix.Program().Main())
	if main == classfile.NoMethod {
		return nil, fmt.Errorf("reorder: program has no main")
	}
	seen := make([]bool, ix.Len())
	var order []classfile.MethodID
	var visit func(m classfile.MethodID)
	visit = func(m classfile.MethodID) {
		if seen[m] {
			return
		}
		seen[m] = true
		order = append(order, m)
		g := graphs[m]
		if g == nil {
			return
		}
		visited := make([]bool, len(g.Blocks))
		var walk func(b int)
		walk = func(b int) {
			if visited[b] {
				return
			}
			visited[b] = true
			for _, cs := range g.Blocks[b].Calls {
				if id := ix.ID(cs.Target); id != classfile.NoMethod {
					visit(id)
				}
			}
			for _, e := range g.Blocks[b].Succs {
				if !e.Back {
					walk(e.To)
				}
			}
		}
		walk(0)
	}
	visit(main)
	for id := classfile.MethodID(0); int(id) < ix.Len(); id++ {
		if !seen[id] {
			order = append(order, id)
		}
	}
	return newOrder(order, ix.Len()), nil
}

// FromProfile builds the order observed at run time (§4.2): methods in
// first-invocation order, with methods the profile never saw placed
// afterward in the fallback (static) order.
func FromProfile(ix *classfile.Index, firstUse []classfile.MethodID, fallback *Order) *Order {
	seen := make([]bool, ix.Len())
	ms := make([]classfile.MethodID, 0, ix.Len())
	for _, id := range firstUse {
		if int(id) >= 0 && int(id) < ix.Len() && !seen[id] {
			seen[id] = true
			ms = append(ms, id)
		}
	}
	for _, id := range fallback.Methods {
		if !seen[id] {
			seen[id] = true
			ms = append(ms, id)
		}
	}
	return newOrder(ms, ix.Len())
}

// ClassOrder derives the first-use order of classes: each class ranked by
// the earliest position of any of its methods. The transfer schedules
// process class files in this order.
func (o *Order) ClassOrder(ix *classfile.Index) []string {
	prog := ix.Program()
	best := make(map[string]int, len(prog.Classes))
	for pos, id := range o.Methods {
		name := ix.Class(id).Name
		if _, ok := best[name]; !ok {
			best[name] = pos
		}
	}
	names := make([]string, 0, len(prog.Classes))
	for _, c := range prog.Classes {
		names = append(names, c.Name)
	}
	slices.SortStableFunc(names, func(a, b string) int { return cmp.Compare(best[a], best[b]) })
	return names
}

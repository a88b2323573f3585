// Package cfg builds intra-method control-flow graphs over substrate
// bytecode: basic blocks, edges, back-edge/loop detection, natural loop
// membership, and call-site extraction.
//
// The static first-use estimator (paper §4.1) drives a modified DFS over
// these graphs: it prioritizes paths containing more static loops and
// walks loop bodies before loop exits. The analyses here — loop headers,
// natural loop bodies, and the count of loop headers reachable from each
// block — are exactly the facts that traversal needs.
package cfg

import (
	"fmt"
	"sort"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
)

// CallSite is an INVOKE within a block.
type CallSite struct {
	Target classfile.Ref
	Instr  int // instruction index within the method
}

// Edge classifies a successor edge.
type Edge struct {
	To   int
	Back bool // target is a loop header and this edge closes the loop
}

// Block is a basic block: instructions [Start, End) of the method.
type Block struct {
	ID         int
	Start, End int // instruction index range
	Succs      []Edge
	Calls      []CallSite
	LoopHeader bool
}

// Graph is the CFG of one method.
type Graph struct {
	Ref     classfile.Ref
	Instrs  []bytecode.Instr
	Offsets []int // byte offset of each instruction
	Blocks  []*Block

	// blockOf maps instruction index -> owning block ID.
	blockOf []int
	// loops maps a loop-header block ID to its natural loop body
	// (including the header), merged across back edges sharing the header.
	loops map[int]map[int]bool
	// loopsReach memoizes LoopsReachable.
	loopsReach []int
}

// Build constructs the CFG of method m in class c. INVOKE operands are
// resolved through the class constant pool into Refs.
func Build(c *classfile.Class, m *classfile.Method) (*Graph, error) {
	instrs, at, err := bytecode.Index(m.Code, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("cfg: %s.%s: %w", c.Name, c.MethodName(m), err)
	}
	g := &Graph{
		Ref:    classfile.Ref{Class: c.Name, Name: c.MethodName(m)},
		Instrs: instrs,
	}
	if len(instrs) == 0 {
		return nil, fmt.Errorf("cfg: %v: empty method", g.Ref)
	}

	g.Offsets = make([]int, len(instrs))
	off := 0
	for i, in := range instrs {
		g.Offsets[i] = off
		off += in.Width()
	}

	// Identify leaders.
	leader := make([]bool, len(instrs))
	leader[0] = true
	branchTarget := make([]int, len(instrs)) // instruction index, -1 if none
	for i := range branchTarget {
		branchTarget[i] = -1
	}
	for i, in := range instrs {
		if !in.Op.Info().Branch {
			continue
		}
		tgt := g.Offsets[i] + int(in.Arg)
		if tgt < 0 || tgt >= len(at) || at[tgt] < 0 {
			return nil, fmt.Errorf("cfg: %v: branch at %d into middle of instruction", g.Ref, g.Offsets[i])
		}
		branchTarget[i] = int(at[tgt])
		leader[at[tgt]] = true
		if i+1 < len(instrs) {
			leader[i+1] = true
		}
	}
	for i, in := range instrs {
		if in.Op.Info().Terminal && i+1 < len(instrs) {
			leader[i+1] = true
		}
	}

	// Cut blocks.
	g.blockOf = make([]int, len(instrs))
	for i := 0; i < len(instrs); {
		b := &Block{ID: len(g.Blocks), Start: i}
		i++
		for i < len(instrs) && !leader[i] {
			i++
		}
		b.End = i
		for j := b.Start; j < b.End; j++ {
			g.blockOf[j] = b.ID
		}
		g.Blocks = append(g.Blocks, b)
	}

	// Edges and call sites.
	for _, b := range g.Blocks {
		last := b.End - 1
		in := instrs[last]
		info := in.Op.Info()
		if info.Branch {
			b.Succs = append(b.Succs, Edge{To: g.blockOf[branchTarget[last]]})
		}
		if !info.Terminal && b.End < len(instrs) {
			b.Succs = append(b.Succs, Edge{To: g.blockOf[b.End]})
		}
		for j := b.Start; j < b.End; j++ {
			if instrs[j].Op == bytecode.INVOKE {
				class, name, _ := c.RefTarget(uint16(instrs[j].Arg))
				b.Calls = append(b.Calls, CallSite{
					Target: classfile.Ref{Class: class, Name: name},
					Instr:  j,
				})
			}
		}
	}

	g.findLoops()
	return g, nil
}

// findLoops marks back edges via DFS (an edge is a back edge when its
// target is on the current DFS stack) and computes natural loop bodies.
func (g *Graph) findLoops() {
	const (
		white = iota
		gray
		black
	)
	color := make([]int, len(g.Blocks))
	type backEdge struct{ from, to int }
	var backs []backEdge

	// Iterative DFS to survive deep graphs.
	type item struct{ node, succ int }
	stack := []item{{0, 0}}
	color[0] = gray
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		b := g.Blocks[top.node]
		if top.succ < len(b.Succs) {
			e := &b.Succs[top.succ]
			top.succ++
			switch color[e.To] {
			case gray:
				e.Back = true
				g.Blocks[e.To].LoopHeader = true
				backs = append(backs, backEdge{from: b.ID, to: e.To})
			case white:
				color[e.To] = gray
				stack = append(stack, item{e.To, 0})
			}
			continue
		}
		color[top.node] = black
		stack = stack[:len(stack)-1]
	}

	// Natural loop bodies: from each back edge source, walk predecessors
	// until the header.
	preds := make([][]int, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			preds[e.To] = append(preds[e.To], b.ID)
		}
	}
	g.loops = make(map[int]map[int]bool)
	for _, be := range backs {
		body := g.loops[be.to]
		if body == nil {
			body = map[int]bool{be.to: true}
			g.loops[be.to] = body
		}
		work := []int{be.from}
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			if body[n] {
				continue
			}
			body[n] = true
			work = append(work, preds[n]...)
		}
	}
}

// NumLoops returns the number of distinct loop headers in the method.
func (g *Graph) NumLoops() int { return len(g.loops) }

// LoopHeaders returns loop-header block IDs in ascending order.
func (g *Graph) LoopHeaders() []int {
	var hs []int
	for h := range g.loops {
		hs = append(hs, h)
	}
	sort.Ints(hs)
	return hs
}

// LoopBody returns the natural loop body of header h (nil if h is not a
// loop header). The header itself is included.
func (g *Graph) LoopBody(h int) map[int]bool { return g.loops[h] }

// InLoop reports whether block b belongs to the loop headed by h.
func (g *Graph) InLoop(b, h int) bool { return g.loops[h][b] }

// InnermostLoopOf returns the header of the smallest loop containing b,
// or -1 if b is in no loop.
func (g *Graph) InnermostLoopOf(b int) int {
	best, bestSize := -1, 1<<30
	for h, body := range g.loops {
		if body[b] && len(body) < bestSize {
			best, bestSize = h, len(body)
		}
	}
	return best
}

// LoopsReachable returns the number of distinct loop headers reachable
// from block b (including b itself if it is a header). This is the
// "number of static loops on the path" signal used by the estimator's
// branch-priority heuristic.
func (g *Graph) LoopsReachable(b int) int {
	if g.loopsReach == nil {
		g.loopsReach = make([]int, len(g.Blocks))
		for i := range g.loopsReach {
			g.loopsReach[i] = -1
		}
	}
	if g.loopsReach[b] >= 0 {
		return g.loopsReach[b]
	}
	seen := make([]bool, len(g.Blocks))
	work := []int{b}
	count := 0
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if g.Blocks[n].LoopHeader {
			count++
		}
		for _, e := range g.Blocks[n].Succs {
			work = append(work, e.To)
		}
	}
	g.loopsReach[b] = count
	return count
}

// StaticInstrs returns the number of instructions in block b.
func (g *Graph) StaticInstrs(b int) int { return g.Blocks[b].End - g.Blocks[b].Start }

// BlockOf returns the block containing instruction index i.
func (g *Graph) BlockOf(i int) int { return g.blockOf[i] }

// Calls returns every call site in the method in instruction order.
func (g *Graph) Calls() []CallSite {
	var out []CallSite
	for _, b := range g.Blocks {
		out = append(out, b.Calls...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Instr < out[j].Instr })
	return out
}

// BuildAll constructs CFGs for every method of the program, keyed by
// MethodID from ix.
func BuildAll(ix *classfile.Index) (map[classfile.MethodID]*Graph, error) {
	out := make(map[classfile.MethodID]*Graph, ix.Len())
	for id := classfile.MethodID(0); int(id) < ix.Len(); id++ {
		g, err := Build(ix.Class(id), ix.Method(id))
		if err != nil {
			return nil, err
		}
		out[id] = g
	}
	return out, nil
}

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
	"cmp"
	"fmt"
	"slices"
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
	// loopsReach is LoopsReachable of every block.
	loopsReach []int
}

// Build constructs the CFG of method m in class c. INVOKE operands are
// resolved through the class constant pool into Refs.
func Build(c *classfile.Class, m *classfile.Method) (*Graph, error) {
	g := new(Graph)
	if err := build(g, c, m, new(scratch)); err != nil {
		return nil, err
	}
	return g, nil
}

// scratch is the working memory of one BuildAll call: the tables a
// graph needs only while it is built, kept at the largest method's
// size and reused for every method. It is never shared between calls.
type scratch struct {
	at           []int32 // bytecode.Index's byte offset -> instruction
	leader       []bool
	branchTarget []int // instruction index, -1 if none
	color        []uint8
	stack        []dfsItem
	backs        []backEdge
	preds        [][]int
	seen         []bool
	work         []int
}

type dfsItem struct{ node, succ int }

type backEdge struct{ from, to int }

// build fills g with the CFG of m. What g keeps is allocated to size:
// the instructions, one array for the offsets, the block map and the
// loop counts, the blocks, and one array each for all the blocks'
// successors and calls.
func build(g *Graph, c *classfile.Class, m *classfile.Method, s *scratch) error {
	instrs, at, err := bytecode.Index(m.Code, nil, s.at)
	s.at = at
	if err != nil {
		return fmt.Errorf("cfg: %s.%s: %w", c.Name, c.MethodName(m), err)
	}
	*g = Graph{
		Ref:    classfile.Ref{Class: c.Name, Name: c.MethodName(m)},
		Instrs: instrs,
	}
	if len(instrs) == 0 {
		return fmt.Errorf("cfg: %v: empty method", g.Ref)
	}
	n := len(instrs)

	// Identify leaders.
	leader := slices.Grow(s.leader[:0], n)[:n]
	branchTarget := slices.Grow(s.branchTarget[:0], n)[:n]
	s.leader, s.branchTarget = leader, branchTarget
	clear(leader)
	leader[0] = true
	nCalls := 0
	off := 0
	for i, in := range instrs {
		branchTarget[i] = -1
		info := in.Op.Info()
		if in.Op == bytecode.INVOKE {
			nCalls++
		}
		if info.Terminal && i+1 < n {
			leader[i+1] = true
		}
		if info.Branch {
			tgt := off + int(in.Arg)
			if tgt < 0 || tgt >= len(at) || at[tgt] < 0 {
				return fmt.Errorf("cfg: %v: branch at %d into middle of instruction", g.Ref, off)
			}
			branchTarget[i] = int(at[tgt])
			leader[at[tgt]] = true
			if i+1 < n {
				leader[i+1] = true
			}
		}
		off += in.Width()
	}
	nBlocks := 0
	for _, l := range leader {
		if l {
			nBlocks++
		}
	}

	// One array for the offsets, the block map and the loop counts.
	ints := make([]int, 2*n+nBlocks)
	g.Offsets, g.blockOf, g.loopsReach = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
	off = 0
	for i, in := range instrs {
		g.Offsets[i] = off
		off += in.Width()
	}

	// Cut blocks.
	blocks := make([]Block, nBlocks)
	g.Blocks = make([]*Block, nBlocks)
	nEdges := 0
	for id, i := 0, 0; i < n; id++ {
		b := &blocks[id]
		b.ID, b.Start = id, i
		i++
		for i < n && !leader[i] {
			i++
		}
		b.End = i
		for j := b.Start; j < b.End; j++ {
			g.blockOf[j] = id
		}
		g.Blocks[id] = b
		info := instrs[i-1].Op.Info()
		if info.Branch {
			nEdges++
		}
		if !info.Terminal && i < n {
			nEdges++
		}
	}

	// Edges and call sites, each block's a window of one array.
	edges := make([]Edge, 0, nEdges)
	var calls []CallSite
	if nCalls > 0 {
		calls = make([]CallSite, 0, nCalls)
	}
	for _, b := range g.Blocks {
		last := b.End - 1
		info := instrs[last].Op.Info()
		e0 := len(edges)
		if info.Branch {
			edges = append(edges, Edge{To: g.blockOf[branchTarget[last]]})
		}
		if !info.Terminal && b.End < n {
			edges = append(edges, Edge{To: g.blockOf[b.End]})
		}
		if len(edges) > e0 {
			b.Succs = edges[e0:len(edges):len(edges)]
		}
		c0 := len(calls)
		for j := b.Start; j < b.End; j++ {
			if instrs[j].Op == bytecode.INVOKE {
				class, name, _ := c.RefTarget(uint16(instrs[j].Arg))
				calls = append(calls, CallSite{
					Target: classfile.Ref{Class: class, Name: name},
					Instr:  j,
				})
			}
		}
		if len(calls) > c0 {
			b.Calls = calls[c0:len(calls):len(calls)]
		}
	}

	g.findLoops(s)
	return nil
}

// findLoops marks back edges via DFS (an edge is a back edge when its
// target is on the current DFS stack), computes natural loop bodies,
// and counts the loop headers reachable from every block.
func (g *Graph) findLoops(s *scratch) {
	const (
		white = iota
		gray
		black
	)
	nb := len(g.Blocks)
	color := slices.Grow(s.color[:0], nb)[:nb]
	s.color = color
	clear(color)
	backs := s.backs[:0]

	// Iterative DFS to survive deep graphs.
	stack := append(s.stack[:0], dfsItem{0, 0})
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
				stack = append(stack, dfsItem{e.To, 0})
			}
			continue
		}
		color[top.node] = black
		stack = stack[:len(stack)-1]
	}
	s.stack, s.backs = stack, backs
	if len(backs) == 0 {
		return
	}

	// Predecessor lists; each keeps its capacity from method to method.
	preds := slices.Grow(s.preds[:0], nb)[:nb]
	for i := range preds {
		preds[i] = preds[i][:0]
	}
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			preds[e.To] = append(preds[e.To], b.ID)
		}
	}
	s.preds = preds

	// Natural loop bodies: from each back edge source, walk predecessors
	// until the header.
	g.loops = make(map[int]map[int]bool)
	work := s.work[:0]
	for _, be := range backs {
		body := g.loops[be.to]
		if body == nil {
			body = map[int]bool{be.to: true}
			g.loops[be.to] = body
		}
		work = append(work[:0], be.from)
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

	// A block reaches a loop header when the header's backward walk
	// over predecessors meets it (a header reaches itself).
	seen := slices.Grow(s.seen[:0], nb)[:nb]
	for h := range g.loops {
		clear(seen)
		work = append(work[:0], h)
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			g.loopsReach[n]++
			work = append(work, preds[n]...)
		}
	}
	s.seen, s.work = seen, work
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
func (g *Graph) LoopsReachable(b int) int { return g.loopsReach[b] }

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
	slices.SortFunc(out, func(a, b CallSite) int { return cmp.Compare(a.Instr, b.Instr) })
	return out
}

// BuildAll constructs CFGs for every method of the program, keyed by
// MethodID from ix.
func BuildAll(ix *classfile.Index) (map[classfile.MethodID]*Graph, error) {
	out := make(map[classfile.MethodID]*Graph, ix.Len())
	graphs := make([]Graph, ix.Len())
	var s scratch
	for id := classfile.MethodID(0); int(id) < ix.Len(); id++ {
		g := &graphs[id]
		if err := build(g, ix.Class(id), ix.Method(id), &s); err != nil {
			return nil, err
		}
		out[id] = g
	}
	return out, nil
}

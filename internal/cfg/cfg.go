// Package cfg builds intra-method control-flow graphs over substrate
// bytecode: basic blocks, edges, back-edge/loop detection, natural loop
// membership, and call-site extraction.
//
// The static first-use estimator (paper §4.1) drives a modified DFS over
// these graphs: it prioritizes paths containing more static loops and
// walks loop bodies before loop exits. The analyses here — loop headers,
// natural loop bodies, each block's innermost loop, and the count of
// loop headers reachable from each block — are exactly the facts that
// traversal needs, and all of them are slices.
//
// BuildAll builds every method's graph at once, for analyses that keep
// them. The serving build's static order never does: a Builder rebuilds
// one Graph in place for method after method (BuildInto), and the walk
// holds a graph only while it is inside that method.
package cfg

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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

// Graph is the CFG of one method. A Builder rebuilds a graph in place:
// BuildInto reuses the arrays the graph holds for the next method, so
// nothing read from a graph outlives its next rebuild.
type Graph struct {
	Ref     classfile.Ref
	Instrs  []bytecode.Instr
	Offsets []int // byte offset of each instruction
	Blocks  []*Block

	// blockOf maps instruction index -> owning block ID.
	blockOf []int
	// loopsReach is LoopsReachable of every block.
	loopsReach []int
	// innermost is InnermostLoopOf of every block.
	innermost []int
	// loopIndex maps a loop-header block ID to its position in headers,
	// any other block to -1.
	loopIndex []int
	// headers lists the loop-header block IDs in ascending order.
	headers []int
	// loopBits holds, per header, its natural loop body (including the
	// header, merged across back edges sharing it) as a bitset of words
	// uint64s over block IDs.
	loopBits []uint64
	words    int

	// The arrays behind the fields above, kept for the next rebuild.
	ints   []int
	blocks []Block
	edges  []Edge
	calls  []CallSite
}

// Build constructs the CFG of method m in class c. INVOKE operands are
// resolved through the class constant pool into Refs.
func Build(c *classfile.Class, m *classfile.Method) (*Graph, error) {
	g := new(Graph)
	if err := new(Builder).BuildInto(g, c, m); err != nil {
		return nil, err
	}
	return g, nil
}

// A Builder builds graphs one method after another. It keeps the
// tables a graph needs only while it is built at the largest method's
// size and reuses them for every method; its zero value is ready to
// use. A Builder belongs to one caller: it is never shared between
// goroutines.
type Builder struct {
	at           []int32 // bytecode.Index's byte offset -> instruction
	leader       []bool
	branchTarget []int // instruction index, -1 if none
	color        []uint8
	stack        []dfsItem
	backs        []backEdge
	preds        [][]int
	seen         []bool
	work         []int
	loopSize     []int // per block, the body size of its innermost loop
}

type dfsItem struct{ node, succ int }

type backEdge struct{ from, to int }

// resize returns s with length n, reusing its array when it is large
// enough. The contents are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// BuildInto fills g with the CFG of method m in class c. It reuses the
// arrays g holds from an earlier build, so a graph that is rebuilt for
// one method after another allocates only when a method outgrows every
// one before it; a fresh Graph gets each array allocated to size: the
// instructions, one array for the per-instruction and per-block
// integers, the blocks, and one array each for all the blocks'
// successors, calls and loop bodies.
func (s *Builder) BuildInto(g *Graph, c *classfile.Class, m *classfile.Method) error {
	g.Ref = classfile.Ref{Class: c.Name, Name: c.MethodName(m)}
	instrs, at, err := bytecode.Index(m.Code, g.Instrs, s.at)
	g.Instrs, s.at = instrs, at
	if err != nil {
		return fmt.Errorf("cfg: %s.%s: %w", c.Name, c.MethodName(m), err)
	}
	if len(instrs) == 0 {
		return fmt.Errorf("cfg: %v: empty method", g.Ref)
	}
	n := len(instrs)

	// Identify leaders.
	leader := resize(s.leader, n)
	branchTarget := resize(s.branchTarget, n)
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

	// One array for the offsets, the block map and the per-block loop
	// facts.
	g.ints = resize(g.ints, 2*n+3*nBlocks)
	ints := g.ints
	g.Offsets, ints = ints[:n:n], ints[n:]
	g.blockOf, ints = ints[:n:n], ints[n:]
	g.loopsReach, ints = ints[:nBlocks:nBlocks], ints[nBlocks:]
	g.innermost, ints = ints[:nBlocks:nBlocks], ints[nBlocks:]
	g.loopIndex = ints[:nBlocks:nBlocks]
	clear(g.loopsReach)
	off = 0
	for i, in := range instrs {
		g.Offsets[i] = off
		off += in.Width()
	}

	// Cut blocks.
	g.blocks = resize(g.blocks, nBlocks)
	g.Blocks = resize(g.Blocks, nBlocks)
	nEdges := 0
	for id, i := 0, 0; i < n; id++ {
		b := &g.blocks[id]
		*b = Block{ID: id, Start: i}
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
	edges := slices.Grow(g.edges[:0], nEdges)
	calls := g.calls[:0]
	if nCalls > 0 {
		calls = slices.Grow(calls, nCalls)
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
	g.edges, g.calls = edges, calls

	g.findLoops(s)
	return nil
}

// findLoops marks back edges via DFS (an edge is a back edge when its
// target is on the current DFS stack), computes natural loop bodies and
// each block's innermost loop, and counts the loop headers reachable
// from every block.
func (g *Graph) findLoops(s *Builder) {
	const (
		white = iota
		gray
		black
	)
	nb := len(g.Blocks)
	color := resize(s.color, nb)
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

	headers := g.headers[:0]
	for _, b := range g.Blocks {
		g.innermost[b.ID], g.loopIndex[b.ID] = -1, -1
		if b.LoopHeader {
			g.loopIndex[b.ID] = len(headers)
			headers = append(headers, b.ID)
		}
	}
	g.headers = headers
	g.words = (nb + 63) / 64
	g.loopBits = resize(g.loopBits, len(headers)*g.words)
	clear(g.loopBits)
	if len(backs) == 0 {
		return
	}

	// Predecessor lists; each keeps its capacity from method to method.
	preds := resize(s.preds, nb)
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
	work := s.work[:0]
	for _, be := range backs {
		body := g.body(g.loopIndex[be.to])
		setBit(body, be.to)
		work = append(work[:0], be.from)
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			if hasBit(body, n) {
				continue
			}
			setBit(body, n)
			work = append(work, preds[n]...)
		}
	}

	// A block's innermost loop is the smallest body that holds it; of
	// equal bodies, the one with the lowest header.
	size := resize(s.loopSize, nb)
	s.loopSize = size
	for li, h := range headers {
		body := g.body(li)
		n := 0
		for _, w := range body {
			n += bits.OnesCount64(w)
		}
		for b := range nb {
			if hasBit(body, b) && (g.innermost[b] < 0 || n < size[b]) {
				g.innermost[b], size[b] = h, n
			}
		}
	}

	// A block reaches a loop header when the header's backward walk
	// over predecessors meets it (a header reaches itself).
	seen := resize(s.seen, nb)
	for _, h := range headers {
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

// body returns the bitset of the li'th loop's body.
func (g *Graph) body(li int) []uint64 { return g.loopBits[li*g.words : (li+1)*g.words] }

func setBit(set []uint64, b int)      { set[b/64] |= 1 << (b % 64) }
func hasBit(set []uint64, b int) bool { return set[b/64]&(1<<(b%64)) != 0 }

// InLoop reports whether block b belongs to the loop headed by block h.
func (g *Graph) InLoop(b, h int) bool {
	li := g.loopIndex[h]
	return li >= 0 && hasBit(g.body(li), b)
}

// InnermostLoopOf returns the header of the smallest loop containing b,
// or -1 if b is in no loop.
func (g *Graph) InnermostLoopOf(b int) int { return g.innermost[b] }

// LoopsReachable returns the number of distinct loop headers reachable
// from block b (including b itself if it is a header). This is the
// "number of static loops on the path" signal used by the estimator's
// branch-priority heuristic.
func (g *Graph) LoopsReachable(b int) int { return g.loopsReach[b] }

// StaticInstrs returns the number of instructions in block b.
func (g *Graph) StaticInstrs(b int) int { return g.Blocks[b].End - g.Blocks[b].Start }

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
// MethodID from ix. It keeps every graph at once; a walk that needs one
// method's graph at a time builds it with a Builder instead.
func BuildAll(ix *classfile.Index) (map[classfile.MethodID]*Graph, error) {
	out := make(map[classfile.MethodID]*Graph, ix.Len())
	graphs := make([]Graph, ix.Len())
	var b Builder
	for id := classfile.MethodID(0); int(id) < ix.Len(); id++ {
		g := &graphs[id]
		if err := b.BuildInto(g, ix.Class(id), ix.Method(id)); err != nil {
			return nil, err
		}
		out[id] = g
	}
	return out, nil
}

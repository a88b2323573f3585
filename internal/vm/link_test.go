package vm_test

// These tests sit outside package vm because the six workloads live in
// internal/apps, which imports vm.

import (
	"fmt"
	"strconv"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/bytecode"
	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/verify"
	"nonstrict/internal/vm"
)

// TestBranchBoundaryAgreement walks one branch's landing offset across
// every edge of the shared boundary index (bytecode.Index): the verifier,
// the linker and the CFG builder must accept and reject the same targets,
// and reject in the words they always used.
func TestBranchBoundaryAgreement(t *testing.T) {
	// 0: nop | 1: goto d (operand 2-3) | 4: sipush 7 (operand 5-6) |
	// 7: pop | 8: return — nine code bytes, the branch sits at offset 1.
	const branchAt, codeLen = 1, 9
	cases := []struct {
		name   string
		target int // absolute landing offset
		ok     bool
	}{
		{"before-the-code", -1, false},
		{"first-instruction", 0, true},
		{"itself", branchAt, true},
		{"operand-byte", 5, false},
		{"own-operand-byte", 2, false},
		{"last-instruction", 8, true},
		{"end-of-code", codeLen, false},
		{"past-the-end", codeLen + 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := classfile.NewBuilder("M", "")
			code := bytecode.Encode([]bytecode.Instr{
				{Op: bytecode.NOP},
				{Op: bytecode.GOTO, Arg: int32(tc.target - branchAt)},
				{Op: bytecode.SIPUSH, Arg: 7},
				{Op: bytecode.POP},
				{Op: bytecode.RETURN},
			})
			if len(code) != codeLen {
				t.Fatalf("layout drifted: %d code bytes, the table assumes %d", len(code), codeLen)
			}
			m := b.AddMethod("main", 0, 0, 0, 1, nil, code)
			c := b.Build()
			p := &classfile.Program{Name: "edge", Classes: []*classfile.Class{c}, MainClass: "M"}

			verr := verify.VerifyMethod(c, m, nil)
			_, lerr := vm.Link(p)
			_, gerr := cfg.Build(c, m)
			for _, e := range []struct {
				layer string
				err   error
				want  string
			}{
				{"verifier", verr, "verify: M.main: branch at offset 1 into the middle of an instruction"},
				{"linker", lerr, "vm: M.main: branch at 1 to middle of instruction (" + strconv.Itoa(tc.target) + ")"},
				{"cfg", gerr, "cfg: M.main: branch at 1 into middle of instruction"},
			} {
				switch {
				case tc.ok && e.err != nil:
					t.Errorf("%s rejects a branch to offset %d: %v", e.layer, tc.target, e.err)
				case !tc.ok && (e.err == nil || e.err.Error() != e.want):
					t.Errorf("%s on a branch to offset %d: %v, want %q", e.layer, tc.target, e.err, e.want)
				}
			}
		})
	}
}

// TestLinkCodeAllocs pins the linker's share of a method's first use: the
// linked code array and nothing that scales with the method — decode and
// boundary index come out of the link state's scratch, and the block
// leaders are marked in the code array itself.
func TestLinkCodeAllocs(t *testing.T) {
	if vm.LinkedInstrSize != 12 {
		t.Errorf("a linked instruction takes %d bytes, want 12", vm.LinkedInstrSize)
	}
	app, err := apps.ByName("Jess")
	if err != nil {
		t.Fatal(err)
	}
	p, err := jir.Compile(app.IR)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := vm.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	methods := ln.Index().Len()
	// Each run starts a fresh link state, so its scratch and intern
	// tables grow again; that is amortised over the methods like the rest.
	allocs := testing.AllocsPerRun(5, func() {
		if err := ln.Relink(); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(methods)
	t.Logf("Jess: %d methods, %.2f allocations per linkCode", methods, per)
	if per > 2 {
		t.Errorf("linkCode: %.2f allocations per method, budget 2", per)
	}
}

// TestBlockLeadersAgreeWithCFG checks the linker's block leaders against
// the CFG builder's on all six apps: the same leaders plus the
// instruction after each call, each marked with its block's length, and
// an unmarked end-of-code sentinel after the last instruction.
func TestBlockLeadersAgreeWithCFG(t *testing.T) {
	for _, app := range apps.All() {
		p, err := jir.Compile(app.IR)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := vm.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		ix := ln.Index()
		for id := classfile.MethodID(0); int(id) < ix.Len(); id++ {
			g, err := cfg.Build(ix.Class(id), ix.Method(id))
			if err != nil {
				t.Fatal(err)
			}
			n := len(g.Instrs)
			leader := make([]bool, n+1)
			for _, b := range g.Blocks {
				leader[b.Start] = true
			}
			for _, c := range g.Calls() {
				leader[c.Instr+1] = true
			}
			leader[n] = false // the sentinel starts no block

			marks := ln.BlockMarks(id)
			if len(marks) != n+1 {
				t.Fatalf("%v: %d linked instructions, want %d and the sentinel", ix.Ref(id), len(marks), n)
			}
			next := n
			for i := n; i >= 0; i-- {
				want := 0
				if leader[i] {
					want = next - i
					next = i
				}
				if marks[i] != want {
					t.Errorf("%s %v: instruction %d marked %d, want %d", app.Name, ix.Ref(id), i, marks[i], want)
				}
			}
		}
	}
}

// pinnedFusedShare is each app's static share of linked instructions
// that sit in fused runs, as recorded when the superinstruction set was
// chosen. A change that quietly stops fusing fails here.
var pinnedFusedShare = map[string]float64{
	"BIT": 0.591, "Hanoi": 0.541, "JavaCup": 0.606, "Jess": 0.657, "JHLZip": 0.368, "TestDes": 0.487,
}

// demandGate adds each class to a live program the first time execution
// waits for it, so every cross-class reference links unresolved and is
// patched where it first runs.
type demandGate struct {
	lv      *vm.Linked
	classes map[string]*classfile.Class
}

func (g *demandGate) AwaitClass(name string) error {
	c, ok := g.classes[name]
	if !ok {
		return fmt.Errorf("no class %s", name)
	}
	return g.lv.AddClass(c, 0)
}

func (g *demandGate) AwaitMethod(ref classfile.Ref) error { return g.AwaitClass(ref.Class) }

// TestFusionStaysInBlock checks the superinstructions of all six apps,
// linked eagerly and live with classes arriving on demand: no fused run
// reaches past its block's leader or holds an unresolved reference, and
// the live run computes what the app should.
func TestFusionStaysInBlock(t *testing.T) {
	check := func(name string, ln *vm.Linked, methods int) (fused, total int) {
		for id := classfile.MethodID(0); int(id) < methods; id++ {
			marks, unresolved := ln.BlockMarks(id), ln.Unresolved(id)
			if len(marks) == 0 {
				continue // a live method that never ran
			}
			total += len(marks) - 1
			for _, r := range ln.FusedRuns(id) {
				at, n := r[0], r[1]
				fused += n
				if at+n > len(marks)-1 {
					t.Errorf("%s method %d: run at %d of %d runs past the code's end", name, id, at, n)
					continue
				}
				for i := at; i < at+n; i++ {
					if i > at && marks[i] != 0 {
						t.Errorf("%s method %d: run at %d of %d crosses the leader at %d", name, id, at, n, i)
					}
					if unresolved[i] {
						t.Errorf("%s method %d: run at %d of %d holds an unresolved reference at %d", name, id, at, n, i)
					}
				}
			}
		}
		return fused, total
	}
	for _, app := range apps.All() {
		p, err := jir.Compile(app.IR)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := vm.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		fused, total := check(app.Name, ln, ln.Index().Len())
		share := float64(fused) / float64(total)
		t.Logf("%s: %d of %d instructions fused (%.3f)", app.Name, fused, total, share)
		if share < pinnedFusedShare[app.Name]-0.01 {
			t.Errorf("%s: static fused share %.3f, pinned %.3f", app.Name, share, pinnedFusedShare[app.Name])
		}

		g := &demandGate{classes: make(map[string]*classfile.Class)}
		for _, c := range p.Classes {
			g.classes[c.Name] = c
		}
		lv := vm.NewLive(p.Name, p.MainClass, g)
		g.lv = lv
		m, err := lv.Run(vm.Options{Args: app.Args(false)})
		if err != nil {
			t.Fatalf("%s live: %v", app.Name, err)
		}
		if err := app.Check(m, false); err != nil {
			t.Errorf("%s live: %v", app.Name, err)
		}
		check(app.Name+" live", lv, lv.Methods())
	}
}

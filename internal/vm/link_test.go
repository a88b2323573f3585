package vm_test

// These tests sit outside package vm because the six workloads live in
// internal/apps, which imports vm.

import (
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
// boundary index come out of the link state's scratch.
func TestLinkCodeAllocs(t *testing.T) {
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

package apps

import (
	"testing"

	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
)

// TestChecksDetectCorruption proves the Go reference cross-checks have
// teeth: corrupting one pooled constant changes the computation and the
// checker must notice.
func TestChecksDetectCorruption(t *testing.T) {
	a, err := ByName("TestDes")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := jir.Compile(a.IR)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit of one S-box row (a Long constant in Des's pool).
	des := cp.Class("Des")
	corrupted := false
	for i := 1; i < len(des.CP) && !corrupted; i++ {
		if des.CP[i].Kind == classfile.KLong {
			des.CP[i].Int ^= 1 << 17
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no Long constant found to corrupt")
	}
	ln, err := vm.Link(cp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Args: a.TestArgs, MaxSteps: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(m, false); err == nil {
		t.Fatal("checker accepted a corrupted cipher")
	}
}

// TestWrongInputFailsCheck: the train checker must reject a test run and
// vice versa (inputs produce different results).
func TestWrongInputFailsCheck(t *testing.T) {
	a, err := ByName("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := jir.Compile(a.IR)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := vm.Link(cp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Args: a.TestArgs, MaxSteps: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(m, true); err == nil {
		t.Fatal("train checker accepted a test run")
	}
}

// TestAppsStayWithinFrameBudgets: every benchmark must run within the
// VM's default frame and step guards with room to spare.
func TestAppsStayWithinFrameBudgets(t *testing.T) {
	for _, a := range All() {
		cp, err := jir.Compile(a.IR)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := vm.Link(cp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ln.Run(vm.Options{Args: a.Args(false), MaxFrames: 512, MaxSteps: 2e7}); err != nil {
			t.Errorf("%s: does not fit conservative budgets: %v", a.Name, err)
		}
	}
}

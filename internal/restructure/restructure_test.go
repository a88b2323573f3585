package restructure

import (
	"strings"
	"testing"

	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/datapart"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
)

func fixture(t *testing.T) (*classfile.Program, *classfile.Index, *reorder.Order) {
	t.Helper()
	p := &jir.Program{Name: "fx", Main: "M", Classes: []*jir.Class{
		{Name: "M", Funcs: []*jir.Func{
			// Declared in reverse of use order.
			{Name: "third", Body: jir.Block(jir.RetV()), LocalData: 10},
			{Name: "second", Body: jir.Block(jir.Do(jir.Call("M", "third")), jir.RetV()), LocalData: 20},
			{Name: "main", Body: jir.Block(jir.Do(jir.Call("M", "second")), jir.Halt()), LocalData: 30},
		}},
		{Name: "N", Funcs: []*jir.Func{
			{Name: "unused", Body: jir.Block(jir.RetV())},
		}},
	}}
	cp, err := jir.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ix := cp.IndexMethods()
	gs, err := cfg.BuildAll(ix)
	if err != nil {
		t.Fatal(err)
	}
	o, err := reorder.Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	return cp, ix, o
}

func TestApplySortsMethods(t *testing.T) {
	cp, ix, o := fixture(t)
	rp := Apply(cp, ix, o)
	c := rp.Class("M")
	got := []string{c.MethodName(c.Methods[0]), c.MethodName(c.Methods[1]), c.MethodName(c.Methods[2])}
	want := []string{"main", "second", "third"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	// Original untouched.
	oc := cp.Class("M")
	if oc.MethodName(oc.Methods[0]) != "third" {
		t.Error("Apply mutated the original program")
	}
	// Same total size.
	if rp.TotalSize() != cp.TotalSize() {
		t.Errorf("restructured size %d, original %d", rp.TotalSize(), cp.TotalSize())
	}
}

func TestComputeLayouts(t *testing.T) {
	cp, ix, o := fixture(t)
	rp := Apply(cp, ix, o)
	l := ComputeLayouts(rp)

	for _, c := range rp.Classes {
		if l.FileSize[c.Name] != c.WireSize() {
			t.Errorf("class %s FileSize %d, wire %d", c.Name, l.FileSize[c.Name], c.WireSize())
		}
		if l.GlobalEnd[c.Name] != c.GlobalSize() {
			t.Errorf("class %s GlobalEnd mismatch", c.Name)
		}
		prev := l.GlobalEnd[c.Name]
		for _, m := range c.Methods {
			r := classfile.Ref{Class: c.Name, Name: c.MethodName(m)}
			a := l.Avail[r]
			if a <= prev {
				t.Errorf("%v avail %d not past previous end %d", r, a, prev)
			}
			if a-prev != l.BodySize[r] {
				t.Errorf("%v body %d bytes, avail delta %d", r, l.BodySize[r], a-prev)
			}
			prev = a
		}
		if prev != l.FileSize[c.Name] {
			t.Errorf("class %s last avail %d != file size %d", c.Name, prev, l.FileSize[c.Name])
		}
	}

	// main is first in M's file: its avail is global end + its own body.
	mainRef := classfile.Ref{Class: "M", Name: "main"}
	if l.Avail[mainRef] != l.GlobalEnd["M"]+l.BodySize[mainRef] {
		t.Errorf("main avail %d, want %d", l.Avail[mainRef], l.GlobalEnd["M"]+l.BodySize[mainRef])
	}
}

func TestBodySizeIncludesLocalDataAndDelimiter(t *testing.T) {
	cp, ix, o := fixture(t)
	rp := Apply(cp, ix, o)
	l := ComputeLayouts(rp)
	c := rp.Class("M")
	for _, m := range c.Methods {
		r := classfile.Ref{Class: "M", Name: c.MethodName(m)}
		want := len(m.LocalData) + len(m.Code) + classfile.DelimSize
		if l.BodySize[r] != want {
			t.Errorf("%v body size %d, want %d", r, l.BodySize[r], want)
		}
	}
}

// TestPlan: an unpartitioned plan is the interleaved file cut out of the
// serialized classes — each class's global data right before its first
// method in the order, then every body in the order — and a partitioned
// one tiles each class file with needed-first, GMD + body and unused
// units.
func TestPlan(t *testing.T) {
	cp, ix, o := fixture(t)
	rp := Apply(cp, ix, o)
	plan, err := Plan(rp, ix, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(rp.Classes) + len(o.Methods); len(plan) != want {
		t.Fatalf("plan has %d units, want %d", len(plan), want)
	}
	seen := make([]bool, len(rp.Classes))
	next := 0
	for i, u := range plan {
		c := rp.Classes[u.Class]
		l := c.ComputeLayout()
		switch u.Kind {
		case Global:
			if seen[u.Class] || u.Off != 0 || u.Len != l.GlobalEnd || u.Body != -1 {
				t.Errorf("unit %d: global %+v of %s, want [0, %d) once", i, u, c.Name, l.GlobalEnd)
			}
			seen[u.Class] = true
		case Body:
			ml := l.Methods[u.Body]
			if !seen[u.Class] || u.Method != ix.Ref(o.Methods[next]) || u.Off != ml.BodyStart || u.Off+u.Len != ml.DelimEnd {
				t.Errorf("unit %d: body %+v, want %v at [%d, %d) after its global", i, u, ix.Ref(o.Methods[next]), ml.BodyStart, ml.DelimEnd)
			}
			next++
		default:
			t.Errorf("unit %d: kind %d in an unpartitioned plan", i, u.Kind)
		}
	}

	part, err := datapart.Compute(rp)
	if err != nil {
		t.Fatal(err)
	}
	parted, err := Plan(rp, ix, o, part)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]int, len(rp.Classes))
	for i, u := range parted {
		sums[u.Class] += u.Len
		if u.Off != -1 {
			t.Errorf("unit %d: partitioned unit at file offset %d", i, u.Off)
		}
		if u.Kind == Body && u.Len != part.GMD[u.Method]+rp.Class(u.Method.Class).MethodByName(u.Method.Name).BodyWireSize() {
			t.Errorf("unit %d: %v is %d bytes, want its GMD + body", i, u.Method, u.Len)
		}
	}
	for ci, c := range rp.Classes {
		if sums[ci] != c.WireSize() {
			t.Errorf("class %s: partitioned units sum to %d, file is %d", c.Name, sums[ci], c.WireSize())
		}
	}
	if last := parted[len(parted)-1]; last.Kind != Unused {
		t.Errorf("partitioned plan ends with a kind-%d unit, want the unused tails last", last.Kind)
	}
}

func TestPlanRejects(t *testing.T) {
	cp, ix, o := fixture(t)
	rp := Apply(cp, ix, o)
	part, err := datapart.Compute(rp)
	if err != nil {
		t.Fatal(err)
	}
	short := *rp.Class("M")
	short.Methods = short.Methods[:1]
	skewed := *part
	skewed.NeededFirst = map[string]int{"M": part.NeededFirst["M"] + 1, "N": part.NeededFirst["N"]}
	for _, tc := range []struct {
		name string
		p    *classfile.Program
		part *datapart.Partition
		want string
	}{
		{"unrestructured", cp, nil, "not restructured"},
		{"more-methods-than-bodies", &classfile.Program{Classes: []*classfile.Class{&short, rp.Classes[1]}}, nil, "more ordered methods than bodies"},
		{"unknown-class", &classfile.Program{Classes: rp.Classes[:1]}, nil, "unknown class"},
		{"partition-does-not-tile", rp, &skewed, "partitioned stream is"},
	} {
		if _, err := Plan(tc.p, ix, o, tc.part); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

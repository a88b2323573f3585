package reorder

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/synth"
)

// orderPins are SHA-256 digests of every pinned program's StaticPlain
// and Static orders, program by program (see orderDigest), taken when
// both orders were computed over cfg.BuildAll's graphs alone.
const (
	plainPin  = "6617afd215cedac9d75a85077ee1b7feea9e3168f11c4ca3758dff5ff4af3483"
	staticPin = "10c5fd253f70952940c1e7b481af81c7d1e466648ae15cddcfab481e4159405f"
)

// pinnedPrograms are the six paper apps and synth.Suite(1998, 8).
func pinnedPrograms(t *testing.T) []*apps.App {
	t.Helper()
	suite, _, err := synth.Suite(1998, 8, synth.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return append(apps.All(), suite...)
}

// orderDigest hashes each program's name and its order's method IDs.
type orderDigest struct{ h []byte }

func (d *orderDigest) add(name string, o *Order) {
	d.h = append(d.h, name...)
	d.h = append(d.h, 0)
	for _, id := range o.Methods {
		d.h = binary.BigEndian.AppendUint32(d.h, uint32(id))
	}
}

func (d *orderDigest) sum() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:])
}

// TestStaticLazyIsStatic: the static order is one traversal with two
// sources of graphs. Building each method's CFG as the walk reaches it,
// into one graph per call depth, must give the order the walk gives over
// every method's graph built up front; a graph reused while a suspended
// caller still reads it changes the order here before it moves any
// served artifact. StaticPlain, which only ever reads whole-program
// graphs, and Static itself are pinned to the orders they gave before
// the lazy path existed.
func TestStaticLazyIsStatic(t *testing.T) {
	var plain, static orderDigest
	for _, app := range pinnedPrograms(t) {
		prog, err := jir.Compile(app.IR)
		if err != nil {
			t.Fatal(err)
		}
		ix := prog.IndexMethods()
		graphs, err := cfg.BuildAll(ix)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Static(ix, graphs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := StaticLazy(ix)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(got.Methods, want.Methods); i >= 0 {
			t.Errorf("%s: StaticLazy and Static over cfg.BuildAll part at position %d of %d: %v, want %v",
				app.Name, i, len(want.Methods), refAt(ix, got.Methods, i), refAt(ix, want.Methods, i))
		}
		if !slices.Equal(got.Rank, want.Rank) {
			t.Errorf("%s: StaticLazy's ranks differ from Static's", app.Name)
		}
		p, err := StaticPlain(ix, graphs)
		if err != nil {
			t.Fatal(err)
		}
		plain.add(app.Name, p)
		static.add(app.Name, want)
	}
	if got := plain.sum(); got != plainPin {
		t.Errorf("StaticPlain's orders digest to %s, pinned %s", got, plainPin)
	}
	if got := static.sum(); got != staticPin {
		t.Errorf("Static's orders digest to %s, pinned %s", got, staticPin)
	}
}

// firstDiff is the first position where a and b differ, or -1.
func firstDiff(a, b []classfile.MethodID) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func refAt(ix *classfile.Index, ms []classfile.MethodID, i int) string {
	if i >= len(ms) {
		return "end of order"
	}
	return ix.Ref(ms[i]).String()
}

// TestStaticLazyBuildError: a method the walk reaches that has no valid
// CFG fails the order, as it fails cfg.BuildAll.
func TestStaticLazyBuildError(t *testing.T) {
	b := classfile.NewBuilder("M", "")
	b.AddMethod("main", 0, 0, 0, 1, nil, nil)
	ix := (&classfile.Program{Name: "bad", MainClass: "M", Classes: []*classfile.Class{b.Build()}}).IndexMethods()
	if _, err := cfg.BuildAll(ix); err == nil {
		t.Fatal("cfg.BuildAll accepted an empty method")
	}
	if _, err := StaticLazy(ix); err == nil {
		t.Error("StaticLazy accepted an empty main")
	}
}

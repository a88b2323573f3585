package vm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
)

// pinnedProfiles holds, per app and input, the digest of the run's
// profile (first-use order, per-method instruction counts and covered
// bytes, total instructions) and of its segment trace. Every train and
// test order downstream is derived from these, so how the interpreter
// does its accounting must not move a single bit of them.
var pinnedProfiles = map[string]struct{ profile, trace string }{
	"BIT/train":     {"11f8b7f2b4e9b890", "8c99259e09c1357b"},
	"BIT/test":      {"6346d4ddaf92a42a", "bf65a3c8196844a9"},
	"Hanoi/train":   {"8824a6d0362860af", "fb2b826bf1358335"},
	"Hanoi/test":    {"aa4b5472fb38f027", "0ef35b6612f3369a"},
	"JavaCup/train": {"7ba8339557b7b750", "57337e1f812c3357"},
	"JavaCup/test":  {"aaac82008304dad1", "1e4e126829df8430"},
	"Jess/train":    {"424f7ec1b11bd79d", "b007d16877ebad5d"},
	"Jess/test":     {"d2e6d9d3d31b85e4", "6a7301b064143948"},
	"JHLZip/train":  {"e0bfcd6b5750c47e", "f6ffd47468a5c254"},
	"JHLZip/test":   {"93d7a8c39fb7a299", "da4294195560f8bb"},
	"TestDes/train": {"c7618cdfd5d3b7b7", "a0fd07ec66892317"},
	"TestDes/test":  {"90e4e203b1186369", "f0748378277721dc"},
}

// TestProfilePinned runs the six apps on both inputs, with the segment
// trace on and off, and compares the instrumentation with the pins. The
// profile must not depend on whether the trace is collected.
func TestProfilePinned(t *testing.T) {
	for _, app := range apps.All() {
		p, err := jir.Compile(app.IR)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := vm.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, train := range []bool{true, false} {
			key := app.Name + "/test"
			if train {
				key = app.Name + "/train"
			}
			for _, trace := range []bool{false, true} {
				m, err := ln.Run(vm.Options{Args: app.Args(train), Trace: trace})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				prof, tr := profileDigest(m.Profile()), traceDigest(m.Trace())
				want := pinnedProfiles[key]
				if prof != want.profile {
					t.Errorf("%s trace=%v: %d instrs, profile digest %s, pinned %s", key, trace, m.Steps(), prof, want.profile)
				}
				if trace && tr != want.trace {
					t.Errorf("%s: trace digest %s, pinned %s", key, tr, want.trace)
				}
				if !trace && m.Trace() != nil {
					t.Errorf("%s: %d segments collected with the trace off", key, len(m.Trace()))
				}
			}
		}
	}
}

func profileDigest(p *vm.Profile) string {
	d := newDigest()
	d.int(int64(len(p.FirstUse)))
	for _, id := range p.FirstUse {
		d.int(int64(id))
	}
	d.int(int64(len(p.MethodInstrs)))
	for _, n := range p.MethodInstrs {
		d.int(n)
	}
	d.int(int64(len(p.CoveredBytes)))
	for _, n := range p.CoveredBytes {
		d.int(int64(n))
	}
	d.int(p.TotalInstrs)
	return d.sum()
}

func traceDigest(tr []vm.Segment) string {
	d := newDigest()
	for _, s := range tr {
		d.int(int64(s.M))
		d.int(s.N)
	}
	return d.sum()
}

// digest hashes a sequence of integers, little-endian, eight bytes each.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], uint64(v))
	d.h.Write(d.buf)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

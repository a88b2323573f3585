package vm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/synth"
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

	// synth.Suite(synthSeed, synthApps, synth.Params{})
	"synth-1998-0/train": {"26f550e61a629e78", "d982be73aeac28a1"},
	"synth-1998-0/test":  {"14857909eac4c79f", "54527fc2c57eadbd"},
	"synth-1998-1/train": {"cb36cc6e8244ec04", "34001ec4b67d663e"},
	"synth-1998-1/test":  {"f175bdfa7089eb97", "9cda7824f5c46c6b"},
	"synth-1998-2/train": {"f7780926522489e1", "550d0d677d673967"},
	"synth-1998-2/test":  {"59080a67f6a51922", "82b2c65ebb986171"},
	"synth-1998-3/train": {"d1234c2b2ae57066", "8fdddcc54e342e16"},
	"synth-1998-3/test":  {"f0c64c55b651756a", "345d24907c35c431"},
	"synth-1998-4/train": {"8e7fd1d5a4f6064a", "0075d09e87489e89"},
	"synth-1998-4/test":  {"4c2cdd6a2df141b0", "96b0dee931c25138"},
	"synth-1998-5/train": {"cde031731705faf4", "57f7fed7fced7f19"},
	"synth-1998-5/test":  {"f2d5aed25f8cb62a", "b3ea2ccdc3741c27"},
	"synth-1998-6/train": {"9d35c84fbeb451c2", "5fe864c6d0302820"},
	"synth-1998-6/test":  {"6ea4631e35471385", "8ce12d49b94ae05a"},
	"synth-1998-7/train": {"b11ffe095dded850", "67ccde7a78b3dbf9"},
	"synth-1998-7/test":  {"c1268418d7b78c98", "2df6a6a80564544e"},
}

// pinnedGlobals holds, per program and input, the digest of the run's
// final globals — every static field's integer and array, the program's
// observable output.
var pinnedGlobals = map[string]string{
	"BIT/train":          "61ea8d8870be459f",
	"BIT/test":           "1b74e6a9d522bd68",
	"Hanoi/train":        "afb21c09189e464e",
	"Hanoi/test":         "5c66d0057780ca3f",
	"JavaCup/train":      "106a3dfbffbfe165",
	"JavaCup/test":       "f37fd6bb999e0560",
	"Jess/train":         "717b1217adda9bc9",
	"Jess/test":          "df1289412a0eae3e",
	"JHLZip/train":       "2b9ce702c9b87a57",
	"JHLZip/test":        "1dd2cf900759b344",
	"TestDes/train":      "d6d18730e45d9d20",
	"TestDes/test":       "a09c03eaeb5f39a0",
	"synth-1998-0/train": "21420c260304d74e",
	"synth-1998-0/test":  "aff986eecf4bf8d4",
	"synth-1998-1/train": "6bcc9b7cdd8ab9d8",
	"synth-1998-1/test":  "577f3e1ecc370a2c",
	"synth-1998-2/train": "e1324f88c68d9945",
	"synth-1998-2/test":  "0c5d72c16cef6fda",
	"synth-1998-3/train": "562c365d7bb4cf2e",
	"synth-1998-3/test":  "a2f90c59b767a5e7",
	"synth-1998-4/train": "4c1ece599cb5c94e",
	"synth-1998-4/test":  "e0981f71bd829ed1",
	"synth-1998-5/train": "c465d84d0e0d5447",
	"synth-1998-5/test":  "5d62eba0d907e0fc",
	"synth-1998-6/train": "34de8b02f5e25385",
	"synth-1998-6/test":  "11bbf4140c1b3186",
	"synth-1998-7/train": "1170e5604ada89ae",
	"synth-1998-7/test":  "ec4aab79ac85bb95",
}

// synthSeed fixes the generated programs that widen the pins beyond the
// six apps: compiler output over more shapes of code than they reach.
const synthSeed, synthApps = 1998, 8

// TestProfilePinned runs the six apps and eight generated programs on
// both inputs, with the segment trace on and off, and compares the
// instrumentation and the final globals with the pins. The profile must
// not depend on whether the trace is collected.
func TestProfilePinned(t *testing.T) {
	suite, _, err := synth.Suite(synthSeed, synthApps, synth.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range append(apps.All(), suite...) {
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
				if g := globalsDigest(t, p, m); g != pinnedGlobals[key] {
					t.Errorf("%s trace=%v: globals digest %s, pinned %s", key, trace, g, pinnedGlobals[key])
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

func globalsDigest(t *testing.T, p *classfile.Program, m *vm.Machine) string {
	d := newDigest()
	for _, c := range p.Classes {
		for _, f := range c.Fields {
			name := c.Utf8(f.Name)
			v, err := m.Global(c.Name, name)
			if err != nil {
				t.Fatal(err)
			}
			arr, err := m.GlobalArray(c.Name, name)
			if err != nil {
				t.Fatal(err)
			}
			d.int(v)
			d.int(int64(len(arr)))
			for _, x := range arr {
				d.int(x)
			}
		}
	}
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

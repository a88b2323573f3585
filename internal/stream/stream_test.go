package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/vm"
)

// plan builds a restructured benchmark and its stream writer.
func plan(t testing.TB, name string) (*apps.App, *classfile.Program, *classfile.Index, *Writer) {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jir.Compile(app.IR)
	if err != nil {
		t.Fatal(err)
	}
	ix := prog.IndexMethods()
	graphs, err := cfg.BuildAll(ix)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := reorder.Static(ix, graphs)
	if err != nil {
		t.Fatal(err)
	}
	rp := restructure.Apply(prog, ix, ord)
	w, err := NewWriter(rp, ix, ord)
	if err != nil {
		t.Fatal(err)
	}
	return app, rp, ix, w
}

func TestRoundTripAndExecute(t *testing.T) {
	app, rp, ix, w := plan(t, "Hanoi")

	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != w.Size() || int64(buf.Len()) != n {
		t.Fatalf("wrote %d bytes, Size says %d, buffer has %d", n, w.Size(), buf.Len())
	}

	l := NewLoader(rp.Name, rp.MainClass, nil)
	var events []Event
	if err := l.Load(&buf, func(e Event) { events = append(events, e) }); err != nil {
		t.Fatal(err)
	}

	// Event structure: one ClassLinked + ClassComplete per class, one
	// MethodReady per method; every class's link precedes its methods;
	// Bytes is non-decreasing.
	var linked, ready, complete int
	linkedSet := map[string]bool{}
	var prevBytes int64
	for _, e := range events {
		if e.Bytes < prevBytes {
			t.Fatalf("event bytes went backwards: %+v", e)
		}
		prevBytes = e.Bytes
		switch e.Kind {
		case ClassLinked:
			linked++
			linkedSet[e.Class] = true
		case MethodReady:
			ready++
			if !linkedSet[e.Class] {
				t.Fatalf("method %v ready before class linked", e.Method)
			}
		case ClassComplete:
			complete++
		}
	}
	if linked != len(rp.Classes) || complete != len(rp.Classes) {
		t.Errorf("linked %d, complete %d, classes %d", linked, complete, len(rp.Classes))
	}
	if ready != ix.Len() {
		t.Errorf("ready %d, methods %d", ready, ix.Len())
	}

	// The first MethodReady is main: that is the non-strict invocation
	// point.
	for _, e := range events {
		if e.Kind == MethodReady {
			if e.Method != rp.Main() {
				t.Errorf("first ready method %v, want %v", e.Method, rp.Main())
			}
			if e.Bytes >= w.Size() {
				t.Error("main only ready at end of stream")
			}
			break
		}
	}

	// The assembled program runs and passes the workload self-check.
	got, err := l.Program()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := vm.Link(got)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Args: app.TestArgs, MaxSteps: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Check(m, false); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalResolver(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Verify each method against the loader's own incremental state.
	l := NewLoader(rp.Name, rp.MainClass, nil)
	l.resolver = l.Resolver()
	if err := l.Load(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Program(); err != nil {
		t.Fatal(err)
	}
}

// unitAt walks a well-formed stream and returns the header offset, kind,
// and payload length of unit i.
func unitAt(t *testing.T, data []byte, i int) (off int, kind byte, n int) {
	t.Helper()
	off = streamHeaderSize
	for {
		_, k, ln, _, err := parseUnitHeader(data[off : off+headerSize])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			return off, k, ln
		}
		i--
		off += headerSize + ln
	}
}

// resealStreamHeader recomputes the stream header's self-check after a
// test mutates one of its fields.
func resealStreamHeader(b []byte) {
	binary.BigEndian.PutUint32(b[14:], crc32.Checksum(b[:14], crcTable))
}

func TestLoaderRejectsMalformedStreams(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	load := func(data []byte) error {
		l := NewLoader(rp.Name, rp.MainClass, nil)
		return l.Load(bytes.NewReader(data), nil)
	}

	t.Run("truncated-mid-unit", func(t *testing.T) {
		if err := load(good[:len(good)/2]); err == nil {
			t.Error("accepted truncated stream")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		mut[0] ^= 0xFF
		if err := load(mut); err == nil || !errors.Is(err, ErrBadStream) {
			t.Errorf("err = %v, want ErrBadStream", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		mut[4] = 99
		resealStreamHeader(mut)
		if err := load(mut); err == nil || !errors.Is(err, ErrBadStream) {
			t.Errorf("err = %v, want ErrBadStream", err)
		}
	})
	t.Run("corrupt-stream-header", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		mut[6] ^= 0x40 // damage the unit count without resealing
		if err := load(mut); err == nil || !errors.Is(err, ErrStreamIntegrity) {
			t.Errorf("err = %v, want ErrStreamIntegrity", err)
		}
	})
	t.Run("unit-count-mismatch", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(mut[6:], uint32(w.Units()+1))
		resealStreamHeader(mut)
		if err := load(mut); err == nil || !errors.Is(err, ErrBadStream) {
			t.Errorf("err = %v, want ErrBadStream", err)
		}
	})
	t.Run("lying-unit-count", func(t *testing.T) {
		// A resealed header may claim any count; what a session sizes
		// from it stays bounded.
		mut := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(mut[6:], math.MaxUint32)
		resealStreamHeader(mut)
		l := NewLoader(rp.Name, rp.MainClass, nil)
		if err := l.Load(bytes.NewReader(mut), nil); err == nil || !errors.Is(err, ErrBadStream) {
			t.Errorf("err = %v, want ErrBadStream", err)
		}
		if got := l.Units(); got != maxUnitsHint {
			t.Errorf("Units() = %d, want the hint's bound %d", got, maxUnitsHint)
		}
	})
	t.Run("digest-mismatch", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(mut[10:], binary.BigEndian.Uint32(mut[10:])^0xDEAD)
		resealStreamHeader(mut)
		if err := load(mut); err == nil || !errors.Is(err, ErrStreamIntegrity) {
			t.Errorf("err = %v, want ErrStreamIntegrity", err)
		}
	})
	t.Run("body-before-global", func(t *testing.T) {
		// Splice out the first unit (a global): stream header, then the
		// stream from the second unit's header on. Its body unit now has
		// no global.
		_, _, n := unitAt(t, good, 0)
		mut := append([]byte(nil), good[:streamHeaderSize]...)
		mut = append(mut, good[streamHeaderSize+headerSize+n:]...)
		if err := load(mut); err == nil {
			t.Error("accepted body before global")
		}
	})
	t.Run("bad-kind", func(t *testing.T) {
		// Rewrite the first unit's kind — resealing the header check, so
		// the framing is valid and the kind itself is what gets rejected.
		mut := append([]byte(nil), good...)
		off, _, n := unitAt(t, good, 0)
		class, _, _, crc, err := parseUnitHeader(good[off : off+headerSize])
		if err != nil {
			t.Fatal(err)
		}
		putUnitHeader(mut[off:off+headerSize], class, 9, n, crc)
		if err := load(mut); err == nil || !errors.Is(err, ErrBadStream) {
			t.Errorf("err = %v, want ErrBadStream", err)
		}
	})
	t.Run("corrupt-unit-header", func(t *testing.T) {
		// A flipped bit in a unit header desyncs all later framing; with
		// no in-stream resync possible this must be terminal.
		mut := append([]byte(nil), good...)
		off, _, _ := unitAt(t, good, 0)
		mut[off+3] ^= 0x01 // high byte of the length field
		if err := load(mut); err == nil || !errors.Is(err, ErrStreamIntegrity) {
			t.Errorf("err = %v, want ErrStreamIntegrity", err)
		}
	})
	t.Run("corrupt-delimiter", func(t *testing.T) {
		// A flipped payload byte (here a body's trailing delimiter) fails
		// the unit checksum; with no repair path that is terminal.
		mut := append([]byte(nil), good...)
		for i := 0; ; i++ {
			off, kind, n := unitAt(t, good, i)
			if kind == KindBody {
				mut[off+headerSize+n-1] ^= 0xFF
				break
			}
		}
		if err := load(mut); err == nil || !errors.Is(err, ErrStreamIntegrity) {
			t.Errorf("err = %v, want ErrStreamIntegrity", err)
		}
	})
	t.Run("resealed-bad-delimiter", func(t *testing.T) {
		// The same flipped delimiter under a recomputed unit checksum:
		// the unit passes integrity, so the body install is what rejects
		// it.
		mut := append([]byte(nil), good...)
		for i := 0; ; i++ {
			off, kind, n := unitAt(t, good, i)
			if kind == KindBody {
				payload := mut[off+headerSize : off+headerSize+n]
				payload[n-1] ^= 0xFF
				class, _, _, _, err := parseUnitHeader(good[off : off+headerSize])
				if err != nil {
					t.Fatal(err)
				}
				putUnitHeader(mut[off:off+headerSize], class, kind, n, ChecksumPayload(payload))
				break
			}
		}
		err := load(mut)
		if err == nil || !errors.Is(err, ErrBadStream) || !strings.Contains(err.Error(), "bad delimiter") {
			t.Errorf("err = %v, want ErrBadStream for a bad delimiter", err)
		}
	})
	t.Run("incomplete-program", func(t *testing.T) {
		// A clean cut between units used to slip past the loader and only
		// surface in Program(); the stream header's unit count catches it
		// at EOF now.
		off, _, n := unitAt(t, good, 1)
		err := load(good[:off+headerSize+n])
		if err == nil || !errors.Is(err, ErrBadStream) {
			t.Errorf("err = %v, want ErrBadStream for truncation at a unit boundary", err)
		}
	})
}

func TestWriterRejectsUnrestructured(t *testing.T) {
	app, err := apps.ByName("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jir.Compile(app.IR)
	if err != nil {
		t.Fatal(err)
	}
	ix := prog.IndexMethods()
	graphs, err := cfg.BuildAll(ix)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := reorder.Static(ix, graphs)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately skip restructure.Apply: the declaration order in the
	// files disagrees with the first-use order.
	if _, err := NewWriter(prog, ix, ord); err == nil || !strings.Contains(err.Error(), "restructured") {
		t.Fatalf("err = %v, want restructuring complaint", err)
	}
}

func TestAllBenchmarksStream(t *testing.T) {
	for _, name := range []string{"Hanoi", "TestDes", "JHLZip", "JavaCup", "Jess", "BIT"} {
		name := name
		t.Run(name, func(t *testing.T) {
			app, rp, _, w := plan(t, name)
			pr, pw := io.Pipe()
			go func() {
				_, err := w.WriteTo(pw)
				pw.CloseWithError(err)
			}()
			l := NewLoader(rp.Name, rp.MainClass, nil)
			if err := l.Load(pr, nil); err != nil {
				t.Fatal(err)
			}
			got, err := l.Program()
			if err != nil {
				t.Fatal(err)
			}
			ln, err := vm.Link(got)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ln.Run(vm.Options{Args: app.TestArgs, MaxSteps: 5e8})
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Check(m, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriterRejectsTooManyClasses is the regression test for the silent
// uint16 truncation: the unit header's class index cannot address a
// 65,536th class, so NewWriter must refuse rather than emit headers that
// alias class 0.
func TestWriterRejectsTooManyClasses(t *testing.T) {
	p := &classfile.Program{Name: "big", Classes: make([]*classfile.Class, MaxClasses+1)}
	_, err := NewWriter(p, nil, nil)
	if err == nil {
		t.Fatal("program with 65536 classes accepted")
	}
	if !strings.Contains(err.Error(), "65535") {
		t.Errorf("error %v does not state the class-index limit", err)
	}
}

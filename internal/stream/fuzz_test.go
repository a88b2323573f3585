package stream

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// The loader and the unit-table parser sit directly on untrusted input:
// whatever the network delivers goes through them before anything else.
// These fuzz targets pin the contract that malformed input is an error,
// never a panic. CI runs the seed corpus on every `go test`; local
// exploration with `go test -fuzz=FuzzLoaderLoad ./internal/stream`
// digs deeper.

// fuzzSeedStream builds one valid Hanoi stream to derive seeds from.
func fuzzSeedStream(f *testing.F) (name, mainClass string, good []byte) {
	f.Helper()
	_, rp, _, w := plan(f, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return rp.Name, rp.MainClass, buf.Bytes()
}

func FuzzLoaderLoad(f *testing.F) {
	name, mainClass, good := fuzzSeedStream(f)

	f.Add(good)
	f.Add(good[:len(good)/2])        // truncated mid-unit
	f.Add(good[:streamHeaderSize])   // header only
	f.Add(good[:streamHeaderSize-3]) // short header
	f.Add([]byte{})                  // empty
	f.Add([]byte("NSV2 not a stream at all, just prose with the right magic"))
	// Flip bits at troublesome places: magic, version, count, digest,
	// first unit header, first payload byte.
	for _, pos := range []int{0, 4, 7, 11, streamHeaderSize + 2, streamHeaderSize + 5, streamHeaderSize + headerSize} {
		mut := append([]byte(nil), good...)
		mut[pos] ^= 0x80
		f.Add(mut)
	}
	// A huge claimed unit length with a resealed unit-header check: the
	// framing looks valid, so the size bound has to reject it.
	{
		mut := append([]byte(nil), good...)
		off := streamHeaderSize
		class, kind, _, crc, err := parseUnitHeader(mut[off : off+headerSize])
		if err != nil {
			f.Fatal(err)
		}
		putUnitHeader(mut[off:off+headerSize], class, kind, maxUnitSize+1, crc)
		f.Add(mut)
	}
	// A claimed unit count of 2^32-1 over a tiny stream.
	{
		mut := append([]byte(nil), good[:streamHeaderSize+8]...)
		binary.BigEndian.PutUint32(mut[6:], ^uint32(0))
		resealStreamHeader(mut)
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLoader(name, mainClass, nil)
		// Must never panic; errors are the expected outcome for almost
		// every input. A repair hook that always fails exercises the
		// quarantine paths under fuzzed framing too.
		l.Repair = func(RepairRequest) ([]byte, error) { return nil, ErrBadStream }
		l.RepairAttempts = 1
		if err := l.Load(bytes.NewReader(data), nil); err != nil {
			return
		}
		// The rare accepted input must be internally consistent.
		if _, err := l.Program(); err == nil {
			if !bytes.Equal(data, nil) && l.UnitsConsumed() == 0 {
				t.Error("assembled a program from zero units")
			}
		}
	})
}

func FuzzParseTOC(f *testing.F) {
	_, _, _, w := plan(f, "Hanoi")
	good := mustMarshal(f, w.TOC())
	body := good[:len(good)-tocSumSize]
	f.Add(good)
	f.Add(mustMarshal(f, nil))                        // zero units
	f.Add(mustMarshal(f, w.TOC()[:2]))                // one class, one body
	f.Add(good[:len(good)/3])                         // torn
	f.Add(sealTOC(body[: len(body)/3 : len(body)/3])) // torn, checksum valid
	f.Add(sealTOC(append(tocHead(1<<40), body[tocHeaderSize+1:]...)))
	f.Add(sealTOC(appendEntry(tocHead(1), MaxClasses+1, KindBody, "A", maxUnitSize+1, 1<<40, "m")))
	f.Add(sealTOC(append(append([]byte(nil), body...), 0))) // trailing byte
	f.Add([]byte(`[{"class":0,"kind":0,"body":-1,"off":31,"len":1}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		toc, err := ParseTOC(data)
		if err != nil {
			return
		}
		// Anything accepted must uphold the geometry the demand path
		// relies on: in-bounds kinds and strictly increasing,
		// non-overlapping payload ranges.
		prevEnd := int64(streamHeaderSize)
		for i, u := range toc {
			if u.Kind != KindGlobal && u.Kind != KindBody {
				t.Fatalf("entry %d: kind %d accepted", i, u.Kind)
			}
			if u.Len <= 0 || u.Len > maxUnitSize {
				t.Fatalf("entry %d: length %d accepted", i, u.Len)
			}
			if u.Off != prevEnd+headerSize {
				t.Fatalf("entry %d: offset %d accepted after end %d", i, u.Off, prevEnd)
			}
			prevEnd = u.Off + int64(u.Len)
		}
		// ...and be a table MarshalTOC would write: the two sides agree
		// on what a well-formed table is.
		again, err := MarshalTOC(toc)
		if err != nil {
			t.Fatalf("accepted a table MarshalTOC refuses: %v", err)
		}
		if back, err := ParseTOC(again); err != nil || !reflect.DeepEqual(back, toc) {
			t.Fatalf("re-encoded table parses differently (err %v)", err)
		}
	})
}

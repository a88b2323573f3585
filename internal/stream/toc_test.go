package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"nonstrict/internal/classfile"
)

func mustMarshal(t testing.TB, toc []UnitInfo) []byte {
	t.Helper()
	data, err := MarshalTOC(toc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Hand encoders for hostile tables: MarshalTOC refuses to write them.

func tocHead(count uint64) []byte {
	return binary.AppendUvarint(append([]byte(tocMagic), tocVersion), count)
}

func appendName(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendEntry encodes one unit whose class is seen for the first time.
func appendEntry(b []byte, class uint64, kind byte, className string, n uint64, body uint64, method string) []byte {
	b = binary.AppendUvarint(b, class<<1|uint64(kind))
	b = appendName(b, className)
	b = binary.AppendUvarint(b, n)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	if kind == KindBody {
		b = binary.AppendUvarint(b, body)
		b = appendName(b, method)
	}
	return b
}

func sealTOC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// TestParseTOCRejectsBadGeometry: a table a demand-fetching client
// would turn straight into wrong byte-range requests must never reach
// it. Two routes are closed. A table held as []UnitInfo whose derived
// fields (offsets, a method's class, a global unit's body index) say
// something other than what ParseTOC would rebuild is refused by
// MarshalTOC — silently dropping them would hand the client a different
// table from the one the caller held. A table arriving as bytes is
// refused by ParseTOC, by name; every such input below but the first
// three carries a valid table checksum, so it is the structural check
// that has to catch it.
func TestParseTOCRejectsBadGeometry(t *testing.T) {
	_, _, _, w := plan(t, "BIT")
	good := w.TOC()
	if good[0].Kind != KindGlobal || good[1].Kind != KindBody || len(good) < 3 {
		t.Fatal("expected a global unit, then a body unit, then more")
	}
	structs := []struct {
		name    string
		mutate  func([]UnitInfo)
		wantErr string
	}{
		{"unknown-kind", func(toc []UnitInfo) { toc[1].Kind = 7 }, "unknown kind"},
		{"class-out-of-range", func(toc []UnitInfo) { toc[1].Class = -1 }, "class index"},
		{"class-too-large", func(toc []UnitInfo) { toc[1].Class = MaxClasses + 1 }, "class index"},
		{"empty-class-name", func(toc []UnitInfo) { toc[0].ClassName = "" }, "empty class name"},
		{"class-renamed", func(toc []UnitInfo) {
			toc[1].ClassName += "x"
			toc[1].Method.Class += "x"
		}, "earlier"},
		{"global-with-body-index", func(toc []UnitInfo) { toc[0].Body = 0 }, "global unit with body index"},
		{"global-with-method", func(toc []UnitInfo) { toc[0].Method = classfile.Ref{Class: toc[0].ClassName, Name: "m"} }, "global unit"},
		{"body-with-negative-index", func(toc []UnitInfo) { toc[1].Body = -3 }, "body unit with body index"},
		{"method-of-another-class", func(toc []UnitInfo) { toc[1].Method.Class = "Elsewhere" }, "in a unit of class"},
		{"zero-length", func(toc []UnitInfo) { toc[1].Len = 0 }, "payload length"},
		{"negative-length", func(toc []UnitInfo) { toc[1].Len = -5 }, "payload length"},
		{"oversized-length", func(toc []UnitInfo) { toc[1].Len = maxUnitSize + 1 }, "payload length"},
		{"wrong-first-offset", func(toc []UnitInfo) { toc[0].Off = 0 }, "offset"},
		{"overlapping-ranges", func(toc []UnitInfo) { toc[2].Off = toc[1].Off + 1 }, "offset"},
		{"gap-out-of-bounds", func(toc []UnitInfo) { toc[2].Off += 1 << 20 }, "offset"},
		{"non-monotonic", func(toc []UnitInfo) { toc[1], toc[2] = toc[2], toc[1] }, "offset"},
		{"length-desyncs-successor", func(toc []UnitInfo) { toc[1].Len-- }, "offset"},
	}
	for _, tc := range structs {
		t.Run(tc.name, func(t *testing.T) {
			toc := append([]UnitInfo(nil), good...)
			tc.mutate(toc)
			data, err := MarshalTOC(toc)
			if err == nil {
				_, err = ParseTOC(data)
			}
			if err == nil {
				t.Fatal("malformed unit table survived MarshalTOC and ParseTOC")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}

	sealed := mustMarshal(t, good)
	legacy, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	mutated := func(pos int, v byte) []byte {
		b := append([]byte(nil), sealed[:len(sealed)-tocSumSize]...)
		b[pos] = v
		return b
	}
	oneGlobal := appendEntry(tocHead(1), 0, KindGlobal, "A", 9, 0, "")
	raws := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"bad-json", legacy, "bad magic"}, // the table format before this one
		{"too-short", []byte("[]"), "truncated"},
		{"flipped-bit", append(mutated(len(sealed)/2, sealed[len(sealed)/2]^0x10), sealed[len(sealed)-tocSumSize:]...), "table carries"},
		{"bad-magic", sealTOC(mutated(0, 'X')), "bad magic"},
		{"bad-version", sealTOC(mutated(len(tocMagic), tocVersion+1)), "unsupported version"},
		{"count-overflows-varint", sealTOC(append(append([]byte(tocMagic), tocVersion), bytes.Repeat([]byte{0xff}, 11)...)), "overflows"},
		{"count-exceeds-input", sealTOC(append(tocHead(1000), oneGlobal[len(tocHead(1)):]...)), "cannot fit"},
		{"count-huge", sealTOC(tocHead(math.MaxUint64)), "cannot fit"},
		{"count-short-of-entries", sealTOC(append(tocHead(0), oneGlobal[len(tocHead(1)):]...)), "trailing bytes"},
		{"trailing-byte", sealTOC(append(append([]byte(nil), oneGlobal...), 0)), "trailing bytes"},
		{"wire-class-out-of-range", sealTOC(appendEntry(tocHead(1), MaxClasses+1, KindGlobal, "A", 9, 0, "")), "class index"},
		{"wire-empty-class-name", sealTOC(appendEntry(tocHead(1), 0, KindGlobal, "", 9, 0, "")), "empty class name"},
		{"class-name-overrun", sealTOC(append(binary.AppendUvarint(binary.AppendUvarint(tocHead(1), 0), 1000), "Abcdef"...)), "class name: name length 1000 overruns"},
		{"wire-zero-length", sealTOC(appendEntry(tocHead(1), 0, KindGlobal, "A", 0, 0, "")), "payload length"},
		{"wire-oversized-length", sealTOC(appendEntry(tocHead(1), 0, KindGlobal, "A", maxUnitSize+1, 0, "")), "payload length"},
		{"length-overflows-varint", sealTOC(append(appendName(binary.AppendUvarint(tocHead(1), 0), "A"), bytes.Repeat([]byte{0xff}, 11)...)), "payload length: varint"},
		{"checksum-cut-short", sealTOC(oneGlobal[:len(oneGlobal)-2]), "payload checksum: truncated"},
		{"body-index-out-of-range", sealTOC(appendEntry(tocHead(1), 0, KindBody, "A", 9, math.MaxInt32+1, "m")), "body index"},
		{"method-name-overrun", func() []byte {
			b := appendEntry(tocHead(1), 0, KindBody, "A", 9, 0, "")
			b[len(b)-1] = 100 // method name length, with nothing after it
			return sealTOC(b)
		}(), "method name: name length 100 overruns"},
		{"body-cut-before-index", func() []byte {
			b := appendEntry(tocHead(1), 0, KindBody, "A", 9, 0, "")
			return sealTOC(b[:len(b)-2])
		}(), "body index: truncated"},
	}
	for _, tc := range raws {
		t.Run(tc.name, func(t *testing.T) {
			toc, err := ParseTOC(tc.data)
			if err == nil {
				t.Fatalf("malformed unit table accepted: %+v", toc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}

	t.Run("empty-table", func(t *testing.T) {
		// A table of zero units is valid (no demand path), and distinct
		// from no table.
		toc, err := ParseTOC(mustMarshal(t, nil))
		if err != nil {
			t.Fatalf("empty table rejected: %v", err)
		}
		if toc == nil || len(toc) != 0 {
			t.Fatalf("empty table parsed as %#v", toc)
		}
	})
}

// TestParseTOCTruncation cuts a real table at every byte boundary. A
// bare prefix must be rejected; so must a prefix re-sealed with a valid
// checksum, which the structural checks alone have to catch.
func TestParseTOCTruncation(t *testing.T) {
	_, _, _, w := plan(t, "BIT")
	good := mustMarshal(t, w.TOC())
	if _, err := ParseTOC(good); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := ParseTOC(good[:n]); err == nil {
			t.Fatalf("table cut to %d of %d bytes accepted", n, len(good))
		}
	}
	for n := 0; n < len(good)-tocSumSize; n++ {
		_, err := ParseTOC(sealTOC(good[:n:n]))
		if err == nil {
			t.Fatalf("table cut to %d of %d bytes and re-sealed accepted", n, len(good))
		}
		if n > tocHeaderSize && strings.Contains(err.Error(), "table carries") {
			t.Fatalf("cut at %d: re-sealed table rejected by its checksum, not its structure: %v", n, err)
		}
	}
}

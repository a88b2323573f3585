package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"nonstrict/internal/classfile"
)

// A client fetches the whole unit table before it opens the stream, so
// on a slow link every table byte is first-invocation latency. The wire
// form therefore stores only what cannot be derived:
//
//	"NSUT" | version u8 | uvarint(unit count)
//	per unit, in stream order:
//	  uvarint(class<<1 | kind)
//	  uvarint(len(class name)) | class name   — at the class index's first entry only
//	  uvarint(payload len)
//	  payload CRC32C, u32 little-endian
//	  uvarint(body index) | uvarint(len(method name)) | method name   — body units only
//	CRC32C over everything above, u32 little-endian
//
// Offsets are not stored: the writer lays units back to back, so a
// payload starts one unit header past the end of the previous payload.
// A body unit's Method.Class is its ClassName; a global unit has body
// index -1 and no method.
const (
	tocMagic      = "NSUT"
	tocVersion    = 1
	tocHeaderSize = len(tocMagic) + 1
	tocSumSize    = 4
	// tocMinEntry is the smallest encoding of one unit: a global unit of
	// an already-named class (tag, length, checksum).
	tocMinEntry = 1 + 1 + 4
)

// MarshalTOC serializes a unit table for transport (the serve command
// publishes it next to the stream). It encodes only tables laid out the
// way Writer.TOC lays them out, and returns an error for an entry whose
// derived fields (Off, Method.Class, a global unit's Body and Method, a
// class index's name) disagree with what ParseTOC would reconstruct.
func MarshalTOC(toc []UnitInfo) ([]byte, error) {
	w := tocWriter{
		b:    make([]byte, 0, tocHeaderSize+binary.MaxVarintLen64+16*len(toc)+tocSumSize),
		next: streamHeaderSize + headerSize,
	}
	w.b = append(w.b, tocMagic...)
	w.b = append(w.b, tocVersion)
	w.b = binary.AppendUvarint(w.b, uint64(len(toc)))
	for i, u := range toc {
		if err := w.unit(u); err != nil {
			return nil, fmt.Errorf("stream: unit table entry %d: %w", i, err)
		}
	}
	return binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, crcTable)), nil
}

// tocWriter is the encoder's state between entries.
type tocWriter struct {
	b     []byte
	next  int64    // where the next unit's payload must start
	names []string // class name by class index; "" until first seen
}

// unit appends one entry, or says why ParseTOC could not give it back.
func (w *tocWriter) unit(u UnitInfo) error {
	switch {
	case u.Kind != KindGlobal && u.Kind != KindBody:
		return fmt.Errorf("unknown kind %d", u.Kind)
	case u.Class < 0 || u.Class > MaxClasses:
		return fmt.Errorf("class index %d out of range", u.Class)
	case u.ClassName == "":
		return errors.New("empty class name")
	case u.Len <= 0 || u.Len > maxUnitSize:
		return fmt.Errorf("payload length %d out of range", u.Len)
	case u.Off != w.next:
		return fmt.Errorf("payload at offset %d, want %d (units are laid back to back)", u.Off, w.next)
	case u.Kind == KindGlobal && (u.Body != -1 || u.Method != classfile.Ref{}):
		return fmt.Errorf("global unit with body index %d, method %q", u.Body, u.Method)
	case u.Kind == KindBody && (u.Body < 0 || u.Body > math.MaxInt32):
		return fmt.Errorf("body unit with body index %d", u.Body)
	case u.Kind == KindBody && u.Method.Class != u.ClassName:
		return fmt.Errorf("method %q in a unit of class %q", u.Method, u.ClassName)
	}
	w.next += int64(u.Len) + headerSize

	w.b = binary.AppendUvarint(w.b, uint64(u.Class)<<1|uint64(u.Kind))
	for u.Class >= len(w.names) {
		w.names = append(w.names, "")
	}
	switch w.names[u.Class] {
	case "":
		w.names[u.Class] = u.ClassName
		w.b = binary.AppendUvarint(w.b, uint64(len(u.ClassName)))
		w.b = append(w.b, u.ClassName...)
	case u.ClassName:
	default:
		return fmt.Errorf("class index %d named %q, earlier %q", u.Class, u.ClassName, w.names[u.Class])
	}
	w.b = binary.AppendUvarint(w.b, uint64(u.Len))
	w.b = binary.LittleEndian.AppendUint32(w.b, u.CRC)
	if u.Kind == KindBody {
		w.b = binary.AppendUvarint(w.b, uint64(u.Body))
		w.b = binary.AppendUvarint(w.b, uint64(len(u.Method.Name)))
		w.b = append(w.b, u.Method.Name...)
	}
	return nil
}

// ParseTOC inverts MarshalTOC. The demand-fetch path turns every entry
// into a byte-range request and installs the reply, so a hostile or
// damaged table must not be trusted blindly: nothing is decoded until
// the table's own checksum holds, every field is bounds-checked, and
// offsets are never read from the wire — they are the running sum of
// the lengths, exactly as the writer lays units out. Names are slices
// of one copy of the input, so parsing allocates a constant number of
// objects whatever the unit count.
func ParseTOC(data []byte) ([]UnitInfo, error) {
	if len(data) < tocHeaderSize+1+tocSumSize {
		return nil, fmt.Errorf("stream: unit table: truncated (%d bytes)", len(data))
	}
	if string(data[:len(tocMagic)]) != tocMagic {
		return nil, fmt.Errorf("stream: unit table: bad magic %q", data[:len(tocMagic)])
	}
	if v := data[len(tocMagic)]; v != tocVersion {
		return nil, fmt.Errorf("stream: unit table: unsupported version %d", v)
	}
	body := len(data) - tocSumSize
	if got, want := crc32.Checksum(data[:body], crcTable), binary.LittleEndian.Uint32(data[body:]); got != want {
		return nil, fmt.Errorf("stream: unit table: checksum %08x, table carries %08x", got, want)
	}
	r := tocReader{b: data[:body], s: string(data[:body]), pos: tocHeaderSize}

	count, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("stream: unit table: unit count: %w", err)
	}
	if rest := uint64(len(r.b) - r.pos); count > rest/tocMinEntry {
		return nil, fmt.Errorf("stream: unit table: %d units cannot fit in %d bytes", count, rest)
	}
	toc := make([]UnitInfo, 0, count)
	r.names = make([]string, 0, 64)
	next := int64(streamHeaderSize + headerSize)
	for i := 0; i < int(count); i++ {
		u, err := r.unit()
		if err != nil {
			return nil, fmt.Errorf("stream: unit table entry %d: %w", i, err)
		}
		u.Off = next
		next += int64(u.Len) + headerSize
		toc = append(toc, u)
	}
	if r.pos != len(r.b) {
		return nil, fmt.Errorf("stream: unit table: %d trailing bytes after %d units", len(r.b)-r.pos, count)
	}
	return toc, nil
}

// tocReader is a cursor over the checksummed part of a table. s is a
// string copy of b, so that names can be returned as slices of it.
type tocReader struct {
	b     []byte
	s     string
	pos   int
	names []string // class name by class index; "" until first seen
}

// unit decodes one entry, everything but its offset.
func (r *tocReader) unit() (UnitInfo, error) {
	tag, err := r.uvarint()
	if err != nil {
		return UnitInfo{}, fmt.Errorf("class and kind: %w", err)
	}
	if tag>>1 > MaxClasses {
		return UnitInfo{}, fmt.Errorf("class index %d out of range", tag>>1)
	}
	u := UnitInfo{Class: int(tag >> 1), Kind: byte(tag & 1), Body: -1}
	for u.Class >= len(r.names) {
		r.names = append(r.names, "")
	}
	if r.names[u.Class] == "" {
		if r.names[u.Class], err = r.name(); err != nil {
			return UnitInfo{}, fmt.Errorf("class name: %w", err)
		}
		if r.names[u.Class] == "" {
			return UnitInfo{}, errors.New("empty class name")
		}
	}
	u.ClassName = r.names[u.Class]
	n, err := r.uvarint()
	if err != nil {
		return UnitInfo{}, fmt.Errorf("payload length: %w", err)
	}
	if n == 0 || n > maxUnitSize {
		return UnitInfo{}, fmt.Errorf("payload length %d out of range", n)
	}
	u.Len = int(n)
	if len(r.b)-r.pos < 4 {
		return UnitInfo{}, fmt.Errorf("payload checksum: truncated at byte %d", len(r.b))
	}
	u.CRC = binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	if u.Kind == KindBody {
		bi, err := r.uvarint()
		if err != nil {
			return UnitInfo{}, fmt.Errorf("body index: %w", err)
		}
		if bi > math.MaxInt32 {
			return UnitInfo{}, fmt.Errorf("body index %d out of range", bi)
		}
		u.Body = int(bi)
		u.Method.Class = u.ClassName
		if u.Method.Name, err = r.name(); err != nil {
			return UnitInfo{}, fmt.Errorf("method name: %w", err)
		}
	}
	return u, nil
}

func (r *tocReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	switch {
	case n == 0:
		return 0, fmt.Errorf("truncated at byte %d", len(r.b))
	case n < 0:
		return 0, fmt.Errorf("varint at byte %d overflows 64 bits", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *tocReader) name() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if rest := len(r.b) - r.pos; n > uint64(rest) {
		return "", fmt.Errorf("name length %d overruns the %d bytes left", n, rest)
	}
	s := r.s[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return s, nil
}

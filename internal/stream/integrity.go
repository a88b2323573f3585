package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The stream is exposed to a hostile or lossy link by design: the whole
// point of non-strict execution is to install and run code *before* the
// transfer finishes, so a flipped bit would otherwise go straight into
// the VM. Every unit therefore carries a CRC32C of its payload plus a
// 16-bit check over its own header, and the stream opens with a fixed
// header naming the unit count and a whole-stream digest. The loader
// verifies each unit on arrival and, when a Repair hook is installed,
// asks it once for the bytes of a unit that fails, which the hook
// re-fetches by range under its own retry policy. A unit that is not
// repaired ends the stream instead of installing garbage.

// crcTable is the Castagnoli polynomial table shared by every checksum
// in the format (CRC32C, the same polynomial iSCSI and ext4 use).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ChecksumPayload returns the CRC32C of a unit payload — the value the
// unit header and the TOC carry for it.
func ChecksumPayload(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// Stream header layout: magic "NSV2" (4) | version (1) | reserved (1) |
// unit count u32 | stream digest u32 | header CRC32C u32 = 18 bytes.
// The digest covers every unit header and payload that follows, so a
// stream whose per-unit checks all pass is additionally verified end to
// end at EOF.
const (
	streamMagic      = "NSV2"
	streamVersion    = 2
	streamHeaderSize = 18
)

// ErrStreamIntegrity marks checksum and digest failures: the bytes
// arrived with valid framing but do not match what the writer emitted.
var ErrStreamIntegrity = errors.New("stream: integrity violation")

func putStreamHeader(b []byte, count int, digest uint32) {
	copy(b[0:4], streamMagic)
	b[4] = streamVersion
	b[5] = 0
	binary.BigEndian.PutUint32(b[6:], uint32(count))
	binary.BigEndian.PutUint32(b[10:], digest)
	binary.BigEndian.PutUint32(b[14:], crc32.Checksum(b[:14], crcTable))
}

func parseStreamHeader(b []byte) (count int, digest uint32, err error) {
	if string(b[0:4]) != streamMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadStream, b[0:4])
	}
	if b[4] != streamVersion {
		return 0, 0, fmt.Errorf("%w: unsupported stream version %d", ErrBadStream, b[4])
	}
	if got, want := crc32.Checksum(b[:14], crcTable), binary.BigEndian.Uint32(b[14:]); got != want {
		return 0, 0, fmt.Errorf("%w: stream header check failed (%08x != %08x)", ErrStreamIntegrity, got, want)
	}
	return int(binary.BigEndian.Uint32(b[6:])), binary.BigEndian.Uint32(b[10:]), nil
}

// Unit header layout: class u16 | kind u8 | payload len u32 | payload
// CRC32C u32 | header check u16 (low bits of the CRC32C over the first
// 11 bytes) = 13 bytes. The header check keeps a corrupted length field
// from silently desyncing the framing of everything after it.
func putUnitHeader(hdr []byte, class int, kind byte, n int, crc uint32) {
	binary.BigEndian.PutUint16(hdr[0:], uint16(class))
	hdr[2] = kind
	binary.BigEndian.PutUint32(hdr[3:], uint32(n))
	binary.BigEndian.PutUint32(hdr[7:], crc)
	binary.BigEndian.PutUint16(hdr[11:], uint16(crc32.Checksum(hdr[:11], crcTable)))
}

func parseUnitHeader(hdr []byte) (class int, kind byte, n int, crc uint32, err error) {
	if got, want := uint16(crc32.Checksum(hdr[:11], crcTable)), binary.BigEndian.Uint16(hdr[11:]); got != want {
		return 0, 0, 0, 0, fmt.Errorf("%w: unit header check failed (%04x != %04x)", ErrStreamIntegrity, got, want)
	}
	return int(binary.BigEndian.Uint16(hdr[0:])), hdr[2],
		int(binary.BigEndian.Uint32(hdr[3:])), binary.BigEndian.Uint32(hdr[7:]), nil
}

// RepairRequest identifies one corrupt unit the loader wants re-fetched:
// the payload that arrived in the main stream failed its checksum. A
// repair hook returns a fresh copy of the payload (typically via a
// byte-range request against the writer's unit table); the loader
// re-verifies it against CRC before installing.
type RepairRequest struct {
	// Class is the unit's class index; Kind is KindGlobal or KindBody;
	// Body is the body index within the class (-1 for globals).
	Class int
	Kind  byte
	Body  int
	// Len is the expected payload length and CRC its expected checksum,
	// both taken from the (header-checked) unit header.
	Len int
	CRC uint32
}

// IntegrityStats is a snapshot of the loader's verification counters.
type IntegrityStats struct {
	// CorruptUnits counts main-stream units whose payload or header
	// failed its checksum on arrival.
	CorruptUnits int64
	// Repaired counts the units a repair delivered with a valid checksum.
	Repaired int64
	// DigestVerified reports that Load reached EOF and the whole-stream
	// digest matched. It stays false while the stream is in flight, and
	// for a stream that was cut or ended at a unit that was not repaired.
	DigestVerified bool
}

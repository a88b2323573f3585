package server

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DiskStore is the persistent artifact tier under the in-memory cache.
// A cache miss consults it before running the build pipeline, and a
// successful build is written back. The contract that makes restarts
// warm: a Get after process death returns exactly the bytes Put before
// it — same Data, same TOC, same ETags — or ErrStoreMiss, never a torn
// or stale mixture. It is safe for concurrent use.
//
// It is crash-safe: one file per artifact under a single directory,
// written with the classic temp-file + fsync + atomic rename +
// directory-fsync discipline, so a crash at ANY instant leaves
// either the previous intact entry or the new intact entry — never a
// torn one. internal/check enumerates a crash at every step of Put and
// proves exactly that against a reopened store.
//
// Filenames are content-addressed — <keyhash>@<contenthash>.art — so a
// rewritten artifact lands beside its predecessor and replaces it only
// at the rename commit point. Every load re-verifies the record: magic,
// header CRC, whole-file CRC, payload sha256s, and the ETag derivation.
// A record that fails any check is quarantined (moved into quarantine/,
// counted, surfaced in /metrics) and reported as a miss, so the caller
// rebuilds and the next Put replaces the damage: corruption costs one
// build, never a served byte.
type DiskStore struct {
	dir string

	// CrashHook, when non-nil, runs before each labeled step of Put and
	// aborts it by returning an error — the crash-step enumeration in
	// internal/check uses it to simulate dying at every point of the
	// write protocol. Production stores leave it nil. Set before use.
	CrashHook func(step string) error

	mu      sync.Mutex
	index   map[Key]diskEntry
	lastSeq int64

	storeCounters
}

// ErrStoreMiss reports that the store has no intact entry for a key.
var ErrStoreMiss = errors.New("server: artifact not in store")

// StoreStats counts one DiskStore's traffic. Quarantined is the number of
// entries that failed verification on load and were moved aside — each
// one turns into a rebuild, never into served garbage.
type StoreStats struct {
	Gets        int64 `json:"gets"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	PutErrors   int64 `json:"put_errors"`
	Quarantined int64 `json:"quarantined"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// storeCounters is the atomic half of StoreStats, embedded by DiskStore.
type storeCounters struct {
	gets, hits, misses, puts, putErrors, quarantined atomic.Int64
}

func (c *storeCounters) snapshot() StoreStats {
	return StoreStats{
		Gets:        c.gets.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Puts:        c.puts.Load(),
		PutErrors:   c.putErrors.Load(),
		Quarantined: c.quarantined.Load(),
	}
}

// diskEntry is the in-memory index record for one intact file.
type diskEntry struct {
	file string // filename within dir
	hdr  artHeader
}

// artHeader is the JSON header inside every record. Seq orders rewrites
// of the same key across process lifetimes, so a scan that finds two
// committed generations deterministically prefers the newer.
type artHeader struct {
	App     string `json:"app"`
	Order   string `json:"order"`
	ETag    string `json:"etag"`
	TOCETag string `json:"toc_etag"`
	Units   int    `json:"units"`
	BuildNS int64  `json:"build_ns"`
	Seq     int64  `json:"seq"`
	DataLen int64  `json:"data_len"`
	TOCLen  int64  `json:"toc_len"`
	DataSHA string `json:"data_sha256"`
	TOCSHA  string `json:"toc_sha256"`
}

const (
	// storeMagic names the record layout and the encoding of the unit
	// table inside it: load verifies the table by digest only, so a
	// change to stream.MarshalTOC's format needs a new magic, which
	// sends older records down the quarantine-and-rebuild path. v1 held
	// a JSON table.
	storeMagic     = "NSARTv2\n"
	storeExt       = ".art"
	storeTmpPrefix = ".tmp-"
	quarantineDir  = "quarantine"
)

var storeCRCTable = crc32.MakeTable(crc32.Castagnoli)

// OpenDiskStore opens (creating if needed) a store directory: leftover
// temp files from interrupted Puts are removed, every .art file's
// header is validated, and files that fail validation are quarantined
// immediately. Payload verification is repeated on every Get, so a
// record that rots after open is still caught before it is served.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, err
	}
	s := &DiskStore{dir: dir, index: make(map[Key]diskEntry)}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range names {
		name := de.Name()
		switch {
		case de.IsDir():
			continue
		case strings.HasPrefix(name, storeTmpPrefix):
			// An interrupted Put: never committed, safe to drop.
			os.Remove(filepath.Join(dir, name))
		case filepath.Ext(name) == storeExt:
			hdr, err := s.readHeader(filepath.Join(dir, name))
			if err != nil {
				s.quarantine(name)
				continue
			}
			s.admitLocked(name, hdr)
		}
	}
	return s, nil
}

// admitLocked indexes one validated file, resolving key collisions by
// Seq (newer generation wins; ties break on filename for determinism).
// Callers during Open run single-threaded; later callers hold s.mu.
func (s *DiskStore) admitLocked(name string, hdr artHeader) {
	k := Key{App: hdr.App, Order: hdr.Order}
	if cur, ok := s.index[k]; ok {
		if cur.hdr.Seq > hdr.Seq || (cur.hdr.Seq == hdr.Seq && cur.file > name) {
			return
		}
	}
	s.index[k] = diskEntry{file: name, hdr: hdr}
	if hdr.Seq > s.lastSeq {
		s.lastSeq = hdr.Seq
	}
}

// Stats snapshots the store's counters and resident footprint.
func (s *DiskStore) Stats() StoreStats {
	st := s.storeCounters.snapshot()
	s.mu.Lock()
	st.Entries = len(s.index)
	for _, e := range s.index {
		st.Bytes += e.hdr.DataLen + e.hdr.TOCLen
	}
	s.mu.Unlock()
	return st
}

// Get loads and fully verifies k's record. Any verification failure
// quarantines the file and reports a miss.
func (s *DiskStore) Get(k Key) (*Artifact, error) {
	s.gets.Add(1)
	s.mu.Lock()
	e, ok := s.index[k]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, ErrStoreMiss
	}
	art, err := s.load(e.file)
	if err != nil {
		s.mu.Lock()
		// Drop the entry only if it still names this file (a racing Put
		// may have replaced it with a fresh generation).
		if cur, ok := s.index[k]; ok && cur.file == e.file {
			delete(s.index, k)
		}
		s.mu.Unlock()
		s.quarantine(e.file)
		s.misses.Add(1)
		return nil, fmt.Errorf("%w (quarantined %s: %v)", ErrStoreMiss, e.file, err)
	}
	if art.Key != k {
		s.misses.Add(1)
		return nil, fmt.Errorf("%w (index corruption: %s holds %s)", ErrStoreMiss, e.file, art.Key)
	}
	s.hits.Add(1)
	return art, nil
}

// Put durably writes a's record. The commit point is the rename: before
// it, the previous generation (or absence) is what any reader — or a
// restart — observes; after it, the new one is.
func (s *DiskStore) Put(a *Artifact) error {
	s.puts.Add(1)
	if err := s.put(a); err != nil {
		s.putErrors.Add(1)
		return err
	}
	return nil
}

func (s *DiskStore) put(a *Artifact) error {
	step := func(name string) error {
		if s.CrashHook != nil {
			return s.CrashHook(name)
		}
		return nil
	}
	s.mu.Lock()
	seq := s.lastSeq + 1
	if now := time.Now().UnixNano(); now > seq {
		seq = now
	}
	s.lastSeq = seq
	s.mu.Unlock()

	dataSum := digestOf(a.Data)
	hdr := artHeader{
		App:     a.Key.App,
		Order:   a.Key.Order,
		ETag:    a.ETag,
		TOCETag: a.TOCETag,
		Units:   a.Units,
		BuildNS: int64(a.BuildTime),
		Seq:     seq,
		DataLen: int64(len(a.Data)),
		TOCLen:  int64(len(a.TOC)),
		DataSHA: dataSum.hex(),
		TOCSHA:  digestOf(a.TOC).hex(),
	}
	final := storeFileName(a.Key, dataSum)

	if err := step("begin"); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, storeTmpPrefix+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := step("temp-created"); err != nil {
		return fail(err)
	}

	hj, err := json.Marshal(hdr)
	if err != nil {
		return fail(err)
	}
	head := make([]byte, 0, len(storeMagic)+4+len(hj)+4)
	head = append(head, storeMagic...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(hj)))
	head = append(head, hj...)
	head = binary.LittleEndian.AppendUint32(head, crc32.Checksum(head, storeCRCTable))
	fileCRC := crc32.Checksum(head, storeCRCTable)
	if _, err := tmp.Write(head); err != nil {
		return fail(err)
	}
	if err := step("header-written"); err != nil {
		return fail(err)
	}

	half := len(a.Data) / 2
	if _, err := tmp.Write(a.Data[:half]); err != nil {
		return fail(err)
	}
	if err := step("data-partial"); err != nil {
		return fail(err)
	}
	if _, err := tmp.Write(a.Data[half:]); err != nil {
		return fail(err)
	}
	fileCRC = crc32.Update(fileCRC, storeCRCTable, a.Data)
	if err := step("data-written"); err != nil {
		return fail(err)
	}
	if _, err := tmp.Write(a.TOC); err != nil {
		return fail(err)
	}
	fileCRC = crc32.Update(fileCRC, storeCRCTable, a.TOC)
	if err := step("toc-written"); err != nil {
		return fail(err)
	}
	if _, err := tmp.Write(binary.LittleEndian.AppendUint32(nil, fileCRC)); err != nil {
		return fail(err)
	}
	if err := step("crc-written"); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := step("synced"); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := step("closed"); err != nil {
		os.Remove(tmpName)
		return err
	}

	// The commit point: an atomic rename publishes the fully synced
	// record under its content-addressed name.
	if err := os.Rename(tmpName, filepath.Join(s.dir, final)); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := step("renamed"); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if err := step("dir-synced"); err != nil {
		return err
	}

	s.mu.Lock()
	prev, had := s.index[a.Key]
	s.admitLocked(final, hdr)
	won := s.index[a.Key].file
	s.mu.Unlock()

	// Garbage-collect the generation that lost: the replaced one, or
	// this Put's own record when a newer generation committed first. A
	// crash before this leaves both committed generations; reopen
	// resolves by Seq.
	switch {
	case won != final:
		os.Remove(filepath.Join(s.dir, final))
	case had && prev.file != final:
		os.Remove(filepath.Join(s.dir, prev.file))
	}
	if err := step("stale-deleted"); err != nil {
		return err
	}
	return nil
}

// Delete removes k's entry and file.
func (s *DiskStore) Delete(k Key) error {
	s.mu.Lock()
	e, ok := s.index[k]
	delete(s.index, k)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	if err := os.Remove(filepath.Join(s.dir, e.file)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(s.dir)
}

// quarantine moves a damaged file aside instead of deleting it, so the
// evidence survives for inspection while the entry reads as a miss.
func (s *DiskStore) quarantine(name string) {
	src := filepath.Join(s.dir, name)
	dst := filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%d-%s", time.Now().UnixNano(), name))
	if err := os.Rename(src, dst); err != nil {
		// A file that cannot be moved must not be re-indexed either;
		// removing it is the fallback that keeps serving safe.
		os.Remove(src)
	}
	s.quarantined.Add(1)
}

// readHeader validates the fixed prefix and header checksum of one file
// without reading the payload.
func (s *DiskStore) readHeader(path string) (artHeader, error) {
	var hdr artHeader
	f, err := os.Open(path)
	if err != nil {
		return hdr, err
	}
	defer f.Close()
	fixed := make([]byte, len(storeMagic)+4)
	if _, err := io.ReadFull(f, fixed); err != nil {
		return hdr, err
	}
	if string(fixed[:len(storeMagic)]) != storeMagic {
		return hdr, fmt.Errorf("bad magic")
	}
	hl := binary.LittleEndian.Uint32(fixed[len(storeMagic):])
	if hl > 1<<20 {
		return hdr, fmt.Errorf("absurd header length %d", hl)
	}
	rest := make([]byte, int(hl)+4)
	if _, err := io.ReadFull(f, rest); err != nil {
		return hdr, err
	}
	sum := crc32.Checksum(fixed, storeCRCTable)
	sum = crc32.Update(sum, storeCRCTable, rest[:hl])
	if got := binary.LittleEndian.Uint32(rest[hl:]); got != sum {
		return hdr, fmt.Errorf("header checksum mismatch")
	}
	if err := json.Unmarshal(rest[:hl], &hdr); err != nil {
		return hdr, err
	}
	if hdr.DataLen < 0 || hdr.TOCLen < 0 {
		return hdr, fmt.Errorf("negative payload length")
	}
	return hdr, nil
}

// load reads and fully verifies one record: structure, whole-file CRC,
// payload digests, and the content-addressed validators.
func (s *DiskStore) load(name string) (*Artifact, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	fixedLen := len(storeMagic) + 4
	if len(raw) < fixedLen+4+4 {
		return nil, fmt.Errorf("truncated record (%d bytes)", len(raw))
	}
	if string(raw[:len(storeMagic)]) != storeMagic {
		return nil, fmt.Errorf("bad magic")
	}
	hl := int64(binary.LittleEndian.Uint32(raw[len(storeMagic):fixedLen]))
	headEnd := int64(fixedLen) + hl + 4
	if hl > 1<<20 || headEnd+4 > int64(len(raw)) {
		return nil, fmt.Errorf("header overruns record")
	}
	if got, want := binary.LittleEndian.Uint32(raw[headEnd-4:headEnd]),
		crc32.Checksum(raw[:headEnd-4], storeCRCTable); got != want {
		return nil, fmt.Errorf("header checksum mismatch")
	}
	var hdr artHeader
	if err := json.Unmarshal(raw[fixedLen:headEnd-4], &hdr); err != nil {
		return nil, err
	}
	if hdr.DataLen < 0 || hdr.TOCLen < 0 ||
		headEnd+hdr.DataLen+hdr.TOCLen+4 != int64(len(raw)) {
		return nil, fmt.Errorf("payload lengths disagree with record size")
	}
	if got, want := binary.LittleEndian.Uint32(raw[len(raw)-4:]),
		crc32.Checksum(raw[:len(raw)-4], storeCRCTable); got != want {
		return nil, fmt.Errorf("whole-file checksum mismatch")
	}
	data := raw[headEnd : headEnd+hdr.DataLen]
	toc := raw[headEnd+hdr.DataLen : headEnd+hdr.DataLen+hdr.TOCLen]
	// One sum per payload serves both checks below.
	dataSum, tocSum := digestOf(data), digestOf(toc)
	if dataSum.hex() != hdr.DataSHA {
		return nil, fmt.Errorf("data digest mismatch")
	}
	if tocSum.hex() != hdr.TOCSHA {
		return nil, fmt.Errorf("toc digest mismatch")
	}
	// The validators must still derive from the content, or a restarted
	// server would serve the right bytes under the wrong ETag.
	if dataSum.etag() != hdr.ETag || tocSum.etag() != hdr.TOCETag {
		return nil, fmt.Errorf("etag does not derive from content")
	}
	return &Artifact{
		Key:       Key{App: hdr.App, Order: hdr.Order},
		Data:      data,
		TOC:       toc,
		ETag:      hdr.ETag,
		TOCETag:   hdr.TOCETag,
		Units:     hdr.Units,
		BuildTime: time.Duration(hdr.BuildNS),
	}, nil
}

// storeFileName is the content-addressed name: a key hash so one app's
// generations sort together, an @, and the prefix of the data digest,
// which changes with the content.
func storeFileName(k Key, data digest) string {
	kh := digestOf([]byte(k.App + "\x00" + k.Order))
	return hex.EncodeToString(kh[:8]) + "@" + hex.EncodeToString(data[:8]) + storeExt
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

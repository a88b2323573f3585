package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recordRegion is one checked span of a store record.
type recordRegion struct {
	name   string
	lo, hi int
}

// recordRegions splits an intact record into the spans load checks, in
// file order, and returns its decoded header.
func recordRegions(t *testing.T, raw []byte) ([]recordRegion, artHeader) {
	t.Helper()
	fixed := len(storeMagic) + 4
	hl := int(binary.LittleEndian.Uint32(raw[len(storeMagic):fixed]))
	var hdr artHeader
	if err := json.Unmarshal(raw[fixed:fixed+hl], &hdr); err != nil {
		t.Fatal(err)
	}
	headEnd := fixed + hl + 4
	dataEnd := headEnd + int(hdr.DataLen)
	return []recordRegion{
		{"magic", 0, len(storeMagic)},
		{"header length", len(storeMagic), fixed},
		{"header", fixed, fixed + hl},
		{"header CRC", fixed + hl, headEnd},
		{"data", headEnd, dataEnd},
		{"unit table", dataEnd, dataEnd + int(hdr.TOCLen)},
		{"file CRC", len(raw) - 4, len(raw)},
	}, hdr
}

// reseal recomputes a record's header CRC and whole-file CRC in place,
// so that only the digests and the ETag derivation can tell it is forged.
func reseal(rec []byte, headEnd int) {
	binary.LittleEndian.PutUint32(rec[headEnd-4:], crc32.Checksum(rec[:headEnd-4], storeCRCTable))
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.Checksum(rec[:len(rec)-4], storeCRCTable))
}

// storeCheck names the load check a quarantine reason comes from.
func storeCheck(err error) string {
	msg := err.Error()
	for _, c := range []struct{ prefix, check string }{
		{"truncated record", "size"},
		{"bad magic", "magic"},
		{"header overruns record", "header length"},
		{"header checksum mismatch", "header CRC"},
		{"payload lengths disagree", "lengths"},
		{"whole-file checksum mismatch", "file CRC"},
		{"data digest mismatch", "data digest"},
		{"toc digest mismatch", "toc digest"},
		{"etag does not derive", "etag"},
	} {
		if strings.Contains(msg, c.prefix) {
			return c.check
		}
	}
	return "other: " + msg
}

// TestDiskStoreRejectsEveryCorruption is the store's safety proof over
// one real record per order: every single-bit flip and every truncation
// of Hanoi's record is rejected, and so are the two forgeries that get
// past both CRCs — a payload bit flipped with the CRCs recomputed
// (caught by the digest), and the same with the header's digest
// rewritten to match (caught by the ETag derivation). Get quarantines
// and misses on exactly what load rejects. Sweeping the ≈ 71 000 cases
// of one record through Get costs a file create, a rename and a
// directory scan each (19 s for both orders on a 2-core box, ext4), so the sweep
// damages the record in place and calls load, and the first and last
// byte of every region, a truncation inside every region and the
// forgeries go through Get. A Cache over a store with one flip per
// region rebuilds and serves the pinned validators.
func TestDiskStoreRejectsEveryCorruption(t *testing.T) {
	for _, order := range []string{OrderStatic, OrderTrain} {
		t.Run(order, func(t *testing.T) {
			t.Parallel()
			k := Key{App: "Hanoi", Order: order}
			art, err := Build(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			s, err := OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(art); err != nil {
				t.Fatal(err)
			}
			name := storeFiles(t, dir)[0]
			path := filepath.Join(dir, name)
			qdir := filepath.Join(dir, quarantineDir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			regions, hdr := recordRegions(t, raw)
			entry := diskEntry{file: name, hdr: hdr}

			// get stores rec under the indexed name and returns the check
			// that rejected it, failing unless Get missed and quarantined.
			get := func(what string, rec []byte) string {
				if err := os.WriteFile(path, rec, 0o644); err != nil {
					t.Fatal(err)
				}
				s.mu.Lock()
				s.index[k] = entry
				s.mu.Unlock()
				q := s.quarantined.Load()
				_, miss := s.Get(k)
				if !errors.Is(miss, ErrStoreMiss) {
					t.Fatalf("%s: Get = %v, want ErrStoreMiss", what, miss)
				}
				if got := s.quarantined.Load(); got != q+1 {
					t.Fatalf("%s: quarantined %d -> %d, want one more", what, q, got)
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("%s: record still resident (%v)", what, err)
				}
				qs, err := os.ReadDir(qdir)
				if err != nil || len(qs) != 1 {
					t.Fatalf("%s: quarantine holds %d files (%v), want 1", what, len(qs), err)
				}
				if err := os.Remove(filepath.Join(qdir, qs[0].Name())); err != nil {
					t.Fatal(err)
				}
				return storeCheck(miss)
			}

			// The sweep: damage the one file in place, load, restore.
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// rejected loads the damaged record and names the check that
			// refused it, or "" if every check passed.
			rejected := func() string {
				if _, err := s.load(name); err != nil {
					return storeCheck(err)
				}
				return ""
			}
			write := func(b []byte, off int) {
				if _, err := f.WriteAt(b, int64(off)); err != nil {
					t.Fatal(err)
				}
			}
			byLoad := map[int]string{} // bit 0 of each region's first and last byte
			for _, r := range regions {
				fired := map[string]int{}
				for i := r.lo; i < r.hi; i++ {
					for bit := range 8 { // each write replaces the last flip
						write([]byte{raw[i] ^ 1<<bit}, i)
						check := rejected()
						if check == "" {
							t.Fatalf("bit %d of byte %d (%s): load accepted the record", bit, i, r.name)
						}
						if bit == 0 && (i == r.lo || i == r.hi-1) {
							byLoad[i] = check
						}
						fired[check]++
					}
					write(raw[i:i+1], i)
				}
				t.Logf("%-13s %5d bytes, every bit: %v", r.name, r.hi-r.lo, fired)
			}
			truncated := map[string]int{}
			for n := len(raw) - 1; n >= 0; n-- {
				if err := f.Truncate(int64(n)); err != nil {
					t.Fatal(err)
				}
				check := rejected()
				if check == "" {
					t.Fatalf("truncated to %d bytes: load accepted the record", n)
				}
				truncated[check]++
			}
			write(raw, 0)
			t.Logf("%-13s %5d lengths: %v", "truncation", len(raw), truncated)
			if _, err := s.load(name); err != nil {
				t.Fatalf("restored record does not load: %v", err)
			}

			rec := make([]byte, len(raw))
			for _, r := range regions {
				for _, i := range []int{r.lo, r.hi - 1} {
					copy(rec, raw)
					rec[i] ^= 1
					if got := get(fmt.Sprintf("byte %d (%s)", i, r.name), rec); got != byLoad[i] {
						t.Errorf("byte %d (%s): Get rejected by %q, load by %q", i, r.name, got, byLoad[i])
					}
				}
				get(fmt.Sprintf("truncated to %d bytes (%s)", (r.lo+r.hi)/2, r.name), raw[:(r.lo+r.hi)/2])
			}

			// Forgeries past both CRCs, one per payload, through Get.
			headEnd := regions[3].hi
			for _, p := range []struct {
				region int
				check  string
			}{
				{4, "data digest"},
				{5, "toc digest"},
			} {
				r := regions[p.region]
				copy(rec, raw)
				rec[(r.lo+r.hi)/2] ^= 1
				reseal(rec, headEnd)
				if got := get(r.name+" flip, CRCs resealed", rec); got != p.check {
					t.Errorf("%s flip with CRCs resealed: rejected by %q, want %q", r.name, got, p.check)
				}
				forged := hdr
				if p.region == 4 {
					forged.DataSHA = digestOf(rec[r.lo:r.hi]).hex()
				} else {
					forged.TOCSHA = digestOf(rec[r.lo:r.hi]).hex()
				}
				hj, err := json.Marshal(forged)
				if err != nil {
					t.Fatal(err)
				}
				if len(hj) != regions[2].hi-regions[2].lo {
					t.Fatalf("forged header is %d bytes, record's is %d", len(hj), regions[2].hi-regions[2].lo)
				}
				copy(rec[regions[2].lo:], hj)
				reseal(rec, headEnd)
				if got := get(r.name+" flip, digest and CRCs resealed", rec); got != "etag" {
					t.Errorf("%s flip with digest and CRCs resealed: rejected by %q, want the ETag derivation", r.name, got)
				}
			}

			// One flip per region through a Cache: the damaged record
			// costs a rebuild, and the rebuilt artifact is the pinned one.
			var pinETag, pinTOCETag string
			for _, p := range pinnedETags {
				if p.app == k.App && p.order == k.Order {
					pinETag, pinTOCETag = p.etag, p.tocETag
				}
			}
			for _, r := range regions {
				copy(rec, raw)
				rec[r.lo] ^= 0x80
				if err := os.WriteFile(path, rec, 0o644); err != nil {
					t.Fatal(err)
				}
				s.mu.Lock()
				s.index[k] = entry
				s.mu.Unlock()
				c := NewCache(0, Build)
				c.Store = s
				got, _, err := c.Get(context.Background(), k)
				if err != nil {
					t.Fatalf("%s flip: cache Get: %v", r.name, err)
				}
				if got.ETag != pinETag || got.TOCETag != pinTOCETag {
					t.Fatalf("%s flip: cache served %s %s, pinned %s %s", r.name, got.ETag, got.TOCETag, pinETag, pinTOCETag)
				}
				if st := c.Stats(); st.Builds != 1 || st.StoreHits != 0 {
					t.Fatalf("%s flip: cache stats %+v, want one build and no store hit", r.name, st)
				}
				awaitWriteBack(got)
				// The rebuild's write-back replaced the damage.
				again, err := s.Get(k)
				if err != nil || again.ETag != pinETag {
					t.Fatalf("%s flip: store after rebuild: %v", r.name, err)
				}
				for _, fn := range storeFiles(t, dir) {
					os.Remove(filepath.Join(dir, fn))
				}
				s.mu.Lock()
				delete(s.index, k)
				s.mu.Unlock()
			}
		})
	}
}

package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// storeArt builds a small artifact whose validators derive from its
// content, as the store's load verification demands of real ones.
func storeArt(app, order string, data, toc []byte) *Artifact {
	return &Artifact{
		Key:     Key{App: app, Order: order},
		Data:    data,
		TOC:     toc,
		ETag:    digestOf(data).etag(),
		TOCETag: digestOf(toc).etag(),
		Units:   3,
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := storeArt("alpha", OrderStatic, []byte("interleaved stream bytes"), []byte(`[{"unit":0}]`))
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}

	check := func(s *DiskStore, when string) {
		t.Helper()
		got, err := s.Get(want.Key)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !bytes.Equal(got.Data, want.Data) || !bytes.Equal(got.TOC, want.TOC) {
			t.Fatalf("%s: payload mismatch", when)
		}
		if got.ETag != want.ETag || got.TOCETag != want.TOCETag {
			t.Fatalf("%s: validators %s/%s, want %s/%s", when, got.ETag, got.TOCETag, want.ETag, want.TOCETag)
		}
		if got.Units != want.Units {
			t.Fatalf("%s: units %d, want %d", when, got.Units, want.Units)
		}
	}
	check(s, "same process")

	// A fresh open over the same directory is the restart: identical
	// bytes and validators, no build pipeline anywhere near it. A
	// directory may hold the inventory file earlier releases wrote at
	// drain; it must open and serve like any other.
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(`{"schema":"store-manifest/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(s2, "after reopen")

	keys, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != want.Key {
		t.Fatalf("List = %v, want [%v]", keys, want.Key)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Bytes != int64(len(want.Data)+len(want.TOC)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskStoreMiss(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(Key{App: "ghost", Order: OrderStatic}); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("Get(missing) = %v, want ErrStoreMiss", err)
	}
}

func TestDiskStoreReplaceGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{App: "alpha", Order: OrderStatic}
	v1 := storeArt(k.App, k.Order, []byte("generation one"), []byte("toc1"))
	v2 := storeArt(k.App, k.Order, []byte("generation two, rather longer"), []byte("toc2"))
	if err := s.Put(v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(v2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, v2.Data) {
		t.Fatalf("Get returned old generation")
	}
	// The replaced generation's file is garbage-collected.
	arts := storeFiles(t, dir)
	if len(arts) != 1 {
		t.Fatalf("store holds %d .art files after replacement, want 1: %v", len(arts), arts)
	}
	// Reopen still resolves to the newer generation.
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err = s2.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if got.ETag != v2.ETag {
		t.Fatalf("reopen serves %s, want %s", got.ETag, v2.ETag)
	}
}

// TestDiskStoreBothGenerationsOnDisk is the crash-between-rename-and-GC
// case: two committed generations of one key coexist, and open must
// deterministically pick the newer by Seq.
func TestDiskStoreBothGenerationsOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{App: "alpha", Order: OrderStatic}
	v1 := storeArt(k.App, k.Order, []byte("old bytes"), []byte("toc"))
	v2 := storeArt(k.App, k.Order, []byte("new bytes"), []byte("toc"))
	if err := s.Put(v1); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash by resurrecting v1's file after v2 replaces it:
	// copy it aside, Put v2 (which GCs it), and restore the copy.
	old := storeFiles(t, dir)[0]
	raw, err := os.ReadFile(filepath.Join(dir, old))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(v2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, old), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if got.ETag != v2.ETag {
		t.Fatalf("open resolved to old generation %s, want %s", got.ETag, v2.ETag)
	}
}

func TestDiskStoreCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art := storeArt("alpha", OrderStatic, []byte("bytes that will rot on disk"), []byte("toc"))
	if err := s.Put(art); err != nil {
		t.Fatal(err)
	}
	name := storeFiles(t, dir)[0]
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xFF // flip a payload byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get(art.Key); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("Get(corrupt) = %v, want ErrStoreMiss", err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	// The damaged file moved aside — evidence kept, entry gone.
	if got := storeFiles(t, dir); len(got) != 0 {
		t.Fatalf("corrupt file still resident: %v", got)
	}
	qdir := filepath.Join(dir, quarantineDir)
	qs, err := os.ReadDir(qdir)
	if err != nil || len(qs) != 1 {
		t.Fatalf("quarantine dir holds %d files (%v), want 1", len(qs), err)
	}
	// A second Get is a plain miss, not a repeated quarantine.
	if _, err := s.Get(art.Key); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("second Get = %v, want ErrStoreMiss", err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined grew to %d on a plain miss", st.Quarantined)
	}
}

func TestDiskStoreOpenQuarantinesGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.art"), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, storeTmpPrefix+"leftover"), []byte("half a put"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 quarantined, 0 entries", st)
	}
	if _, err := os.Stat(filepath.Join(dir, storeTmpPrefix+"leftover")); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file survived open: %v", err)
	}
}

func TestDiskStoreDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art := storeArt("alpha", OrderStatic, []byte("data"), []byte("toc"))
	if err := s.Put(art); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(art.Key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(art.Key); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("Get after Delete = %v, want ErrStoreMiss", err)
	}
	if got := storeFiles(t, dir); len(got) != 0 {
		t.Fatalf("file survived Delete: %v", got)
	}
	if err := s.Delete(art.Key); err != nil {
		t.Fatalf("Delete(missing) = %v, want nil", err)
	}
}

// TestCacheStoreWarmRestart is the store contract seen through the
// cache: a second cache (a restarted process) over the same directory
// serves identical bytes with builds == 0.
func TestCacheStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	k := Key{App: "alpha", Order: OrderStatic}
	build := func(ctx context.Context, key Key) (*Artifact, error) {
		return storeArt(key.App, key.Order, []byte("pipeline output for "+key.App), []byte("toc")), nil
	}

	s1, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCache(0, build)
	c1.Store = s1
	first, _, err := c1.Get(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	awaitWriteBack(first)
	if st := c1.Stats(); st.Builds != 1 || st.StoreHits != 0 || st.StoreMisses != 1 {
		t.Fatalf("cold stats = %+v", st)
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(0, func(ctx context.Context, key Key) (*Artifact, error) {
		return nil, fmt.Errorf("restarted server must not rebuild")
	})
	c2.Store = s2
	second, _, err := c2.Get(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Builds != 0 || st.StoreHits != 1 {
		t.Fatalf("restart stats = %+v, want builds=0 store_hits=1", st)
	}
	if second.ETag != first.ETag || !bytes.Equal(second.Data, first.Data) || !bytes.Equal(second.TOC, first.TOC) {
		t.Fatal("restarted cache served different bytes")
	}
}

// TestCacheStoreEvictionRefetch: an artifact evicted from memory comes
// back from the store, not from the pipeline.
func TestCacheStoreEvictionRefetch(t *testing.T) {
	dir := t.TempDir()
	builds := 0
	build := func(ctx context.Context, key Key) (*Artifact, error) {
		builds++
		return storeArt(key.App, key.Order, bytes.Repeat([]byte(key.App), 100), []byte("toc")), nil
	}
	st, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(150, build) // fits exactly one artifact
	c.Store = st
	ctx := context.Background()
	ka := Key{App: "aaaa", Order: OrderStatic}
	kb := Key{App: "bbbb", Order: OrderStatic}
	a, _, err := c.Get(ctx, ka)
	if err != nil {
		t.Fatal(err)
	}
	awaitWriteBack(a)
	b, _, err := c.Get(ctx, kb) // evicts ka
	if err != nil {
		t.Fatal(err)
	}
	awaitWriteBack(b)
	if cs := c.Stats(); cs.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", cs.Evictions)
	}
	if _, _, err := c.Get(ctx, ka); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("pipeline ran %d times, want 2 (eviction must refetch from store)", builds)
	}
	if cs := c.Stats(); cs.StoreHits != 1 {
		t.Fatalf("store hits = %d, want 1", cs.StoreHits)
	}
}

// awaitWriteBack returns once the cache's store write-back of a has
// returned: a cache publishes a built artifact before it persists it.
func awaitWriteBack(a *Artifact) { _ = a.waitDurable(context.Background()) }

// storeFiles lists the committed record files in dir.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), storeExt) {
			out = append(out, de.Name())
		}
	}
	return out
}

package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/stream"
)

// hanoiPinned builds Hanoi's static-order artifact and checks it against
// its pinned validators.
func hanoiPinned(t *testing.T) *Artifact {
	t.Helper()
	k := Key{App: "Hanoi", Order: OrderStatic}
	art, err := Build(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pinnedETags {
		if p.app == k.App && p.order == k.Order && (art.ETag != p.etag || art.TOCETag != p.tocETag) {
			t.Fatalf("Hanoi/scg built as %s %s, pinned %s %s", art.ETag, art.TOCETag, p.etag, p.tocETag)
		}
	}
	return art
}

// copies is a Config.Build that hands out a fresh copy of art for any key.
func copies(art *Artifact) func(context.Context, Key) (*Artifact, error) {
	return func(context.Context, Key) (*Artifact, error) {
		a := *art
		return &a, nil
	}
}

// leftovers lists what an interrupted Put can leave in a store
// directory: temp files, and files in quarantine.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, d := range []string{dir, filepath.Join(dir, quarantineDir)} {
		des, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			if strings.HasPrefix(de.Name(), storeTmpPrefix) || d != dir {
				out = append(out, filepath.Join(filepath.Base(d), de.Name()))
			}
		}
	}
	return out
}

// snapshot copies the files of a store directory into a new one: what a
// crash at this instant would leave on disk. A store opened on the live
// directory would delete a running Put's temp file from under it.
func snapshot(t *testing.T, dir string) string {
	t.Helper()
	snap := t.TempDir()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snap, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return snap
}

// TestPublishedBeforePersisted: a built artifact is served while its
// store write-back is still running, and only its last byte waits for the
// write-back. With the write-back parked after its fsync, the artifact is
// resident, a second Get is a hit, a GET receives its first unit and
// everything else but the last byte, and a crash at that instant leaves a
// clean miss. Once the write-back returns the GET completes with the
// pinned bytes, and a restart is a store hit. A write-back that fails at
// any step still completes the response, counts a put error, and leaves
// no temp file behind a reopen.
func TestPublishedBeforePersisted(t *testing.T) {
	built := hanoiPinned(t)
	k := built.Key
	client := &http.Client{Timeout: 10 * time.Second}

	dir := t.TempDir()
	s, ts := testServer(t, Config{Apps: []string{k.App}, Order: k.Order, StoreDir: dir, Build: copies(built)})
	ds := s.store
	var steps []string // DiskStore.Put's steps, in order
	parked, release := make(chan struct{}), make(chan struct{})
	ds.CrashHook = func(step string) error {
		steps = append(steps, step)
		if step == "synced" {
			close(parked)
			<-release
		}
		return nil
	}
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark) // before the server's Close, which waits for its handlers

	resp, err := client.Get(ts.URL + "/apps/Hanoi/app")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-parked
	units, err := stream.ParseTOC(built.TOC)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, len(built.Data))
	firstEnd := units[0].Off + int64(units[0].Len)
	if _, err := io.ReadFull(resp.Body, body[:firstEnd]); err != nil {
		t.Fatalf("first unit while the write-back is parked: %v", err)
	}
	if _, err := io.ReadFull(resp.Body, body[firstEnd:len(body)-1]); err != nil {
		t.Fatalf("all but the last byte while the write-back is parked: %v", err)
	}
	last := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(resp.Body, body[len(body)-1:])
		last <- err
	}()
	select {
	case err := <-last:
		t.Fatalf("the last byte arrived (%v) before the record was committed", err)
	case <-time.After(50 * time.Millisecond):
	}

	if a := s.cache.Peek(k); a == nil || a.ETag != built.ETag {
		t.Fatalf("Peek while the write-back is parked = %v, want the built artifact", a)
	}
	if _, hit, err := s.cache.Get(context.Background(), k); err != nil || !hit {
		t.Fatalf("second Get while the write-back is parked: hit %v, %v", hit, err)
	}
	snap := snapshot(t, dir)
	crashed, err := OpenDiskStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.Get(k); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("store over a crash mid-write-back: Get = %v, want a miss", err)
	}
	if st := crashed.Stats(); st.Quarantined != 0 || st.Entries != 0 {
		t.Fatalf("store over a crash mid-write-back: %+v, want empty with nothing quarantined", st)
	}
	if got := leftovers(t, snap); len(got) != 0 {
		t.Fatalf("store over a crash mid-write-back left %v", got)
	}

	unpark()
	if err := <-last; err != nil {
		t.Fatalf("last byte: %v", err)
	}
	if n, err := resp.Body.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("body runs past the stream: %d bytes, %v", n, err)
	}
	if !bytes.Equal(body, built.Data) || resp.Header.Get("ETag") != built.ETag {
		t.Fatalf("completed GET: ETag %s, bytes equal %v; want %s", resp.Header.Get("ETag"), bytes.Equal(body, built.Data), built.ETag)
	}
	// The complete response is the commit: no wait on the write-back.
	restarted, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := restarted.Get(k); err != nil || a.ETag != built.ETag {
		t.Fatalf("restart after a complete response: %v, want a store hit", err)
	}
	if st := ds.Stats(); st.Puts != 1 || st.PutErrors != 0 {
		t.Fatalf("store stats %+v, want one clean put", st)
	}

	// A write-back that fails at any one step. The hook's record of the
	// steps is read only after an explicit wait on the write-back.
	awaitWriteBack(s.cache.Peek(k))
	injected := errors.New("injected put failure")
	for _, step := range steps {
		dir := t.TempDir()
		s, ts := testServer(t, Config{Apps: []string{k.App}, Order: k.Order, StoreDir: dir, Build: copies(built)})
		ds := s.store
		ds.CrashHook = func(s string) error {
			if s == step {
				return injected
			}
			return nil
		}
		resp, body := get(t, ts.URL+"/apps/Hanoi/app", nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, built.Data) || resp.Header.Get("ETag") != built.ETag {
			t.Fatalf("put failing at %s: GET %s, ETag %s, bytes equal %v", step, resp.Status, resp.Header.Get("ETag"), bytes.Equal(body, built.Data))
		}
		if st := ds.Stats(); st.Puts != 1 || st.PutErrors != 1 {
			t.Fatalf("put failing at %s: store stats %+v, want one put error", step, st)
		}
		reopened, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := leftovers(t, dir); len(got) != 0 || reopened.Stats().Quarantined != 0 {
			t.Fatalf("put failing at %s: reopen left %v, quarantined %d", step, got, reopened.Stats().Quarantined)
		}
	}
}

// TestConcurrentPutsOneKey: an artifact evicted while its write-back is
// parked is rebuilt and written back a second time. Both write-backs
// finish, one record is left, nothing is left in temp or quarantine, and
// a restart serves the key from the store.
func TestConcurrentPutsOneKey(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var parkedOnce atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	ds.CrashHook = func(step string) error {
		if step == "synced" && parkedOnce.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
		return nil
	}
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark)
	builds := 0
	c := NewCache(150, func(ctx context.Context, key Key) (*Artifact, error) { // fits one artifact
		builds++
		return storeArt(key.App, key.Order, bytes.Repeat([]byte(key.App), 100), []byte("toc")), nil
	})
	c.Store = ds
	ctx := context.Background()
	ka := Key{App: "aaaa", Order: OrderStatic}
	kb := Key{App: "bbbb", Order: OrderStatic}

	first, _, err := c.Get(ctx, ka)
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	b, _, err := c.Get(ctx, kb) // evicts ka
	if err != nil {
		t.Fatal(err)
	}
	awaitWriteBack(b)
	second, _, err := c.Get(ctx, ka) // not yet in the store: a rebuild
	if err != nil {
		t.Fatal(err)
	}
	awaitWriteBack(second)
	if cs := c.Stats(); builds != 3 || cs.Evictions != 2 || cs.StoreHits != 0 {
		t.Fatalf("%d builds, cache stats %+v; want 3 builds, 2 evictions, no store hit", builds, cs)
	}
	unpark()
	awaitWriteBack(first)

	if st := ds.Stats(); st.Puts != 3 || st.PutErrors != 0 || st.Entries != 2 || st.Quarantined != 0 {
		t.Fatalf("store stats %+v, want 3 clean puts of 2 keys", st)
	}
	if files := storeFiles(t, dir); len(files) != 2 {
		t.Fatalf("store holds %v, want one record per key", files)
	}
	if got := leftovers(t, dir); len(got) != 0 {
		t.Fatalf("store directory holds %v", got)
	}
	restarted, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(0, func(context.Context, Key) (*Artifact, error) {
		return nil, errors.New("restarted server must not rebuild")
	})
	c2.Store = restarted
	got, _, err := c2.Get(ctx, ka)
	if err != nil {
		t.Fatal(err)
	}
	if cs := c2.Stats(); cs.Builds != 0 || cs.StoreHits != 1 || got.ETag != first.ETag || !bytes.Equal(got.Data, first.Data) {
		t.Fatalf("restart: stats %+v, ETag %s; want a store hit serving %s", cs, got.ETag, first.ETag)
	}
}

// TestOlderGenerationCommitsLast: two Puts of one key with different
// bytes, the older (lower Seq) one parked after its fsync until the
// newer one has committed. The older record loses at admission, so it is
// the file garbage-collected: the index, the directory and a reopened
// store all keep the newer generation, with nothing quarantined.
func TestOlderGenerationCommitsLast(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var parkedOnce atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	ds.CrashHook = func(step string) error {
		if step == "synced" && parkedOnce.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
		return nil
	}
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark)
	older := storeArt("aaaa", OrderStatic, bytes.Repeat([]byte("old"), 100), []byte("toc"))
	newer := storeArt("aaaa", OrderStatic, bytes.Repeat([]byte("new"), 100), []byte("toc"))

	olderDone := make(chan error, 1)
	go func() { olderDone <- ds.Put(older) }()
	<-parked // older holds the lower Seq and waits after its fsync
	if err := ds.Put(newer); err != nil {
		t.Fatal(err)
	}
	unpark()
	if err := <-olderDone; err != nil {
		t.Fatal(err)
	}

	got, err := ds.Get(older.Key)
	if err != nil {
		t.Fatalf("Get after both Puts: %v", err)
	}
	if got.ETag != newer.ETag {
		t.Fatalf("Get serves %s, want the newer generation %s", got.ETag, newer.ETag)
	}
	if st := ds.Stats(); st.Quarantined != 0 || st.PutErrors != 0 || st.Entries != 1 {
		t.Fatalf("store stats %+v, want one entry, nothing quarantined, no Put error", st)
	}
	want := storeFileName(newer.Key, digestOf(newer.Data))
	if files := storeFiles(t, dir); len(files) != 1 || files[0] != want {
		t.Fatalf("store holds %v, want only the newer record %s", files, want)
	}
	if got := leftovers(t, dir); len(got) != 0 {
		t.Fatalf("store directory holds %v", got)
	}
	reopened, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reopened.Get(older.Key); err != nil || got.ETag != newer.ETag {
		t.Fatalf("reopened store: %v, want the newer generation %s", err, newer.ETag)
	}
}

package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubArtifact builds a synthetic artifact of a given size for cache
// tests that must not pay the real pipeline.
func stubArtifact(k Key, size int) *Artifact {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	return &Artifact{Key: k, Data: data, TOC: []byte("[]"), ETag: digestOf(data).etag(), TOCETag: digestOf([]byte("[]")).etag()}
}

// TestCacheSingleflight: N goroutines requesting one cold key cost
// exactly one build; every caller gets the same artifact pointer.
func TestCacheSingleflight(t *testing.T) {
	var builds atomic.Int64
	gate := make(chan struct{})
	c := NewCache(0, func(ctx context.Context, k Key) (*Artifact, error) {
		builds.Add(1)
		<-gate // hold the build open until all waiters have piled up
		return stubArtifact(k, 100), nil
	})
	const n = 32
	arts := make([]*Artifact, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			art, _, err := c.Get(context.Background(), Key{App: "A", Order: "scg"})
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = art
		}(i)
	}
	// Let the stragglers reach the in-flight wait, then release the build.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", got)
	}
	for i := 1; i < n; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("caller %d got a different artifact pointer", i)
		}
	}
	st := c.Stats()
	if st.Builds != 1 || st.Misses != n {
		t.Errorf("stats = %+v, want 1 build and %d misses", st, n)
	}
	// Warm now: a fresh Get is a hit and never builds.
	if _, hit, err := c.Get(context.Background(), Key{App: "A", Order: "scg"}); err != nil || !hit {
		t.Fatalf("warm get: hit=%v err=%v, want hit", hit, err)
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("warm get ran a build (builds = %d)", got)
	}
}

// TestCacheLRUEviction: inserting past the byte budget evicts from the
// cold end, never the artifact just inserted.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(250, func(ctx context.Context, k Key) (*Artifact, error) {
		return stubArtifact(k, 100), nil
	})
	get := func(app string) {
		t.Helper()
		if _, _, err := c.Get(context.Background(), Key{App: app, Order: "scg"}); err != nil {
			t.Fatal(err)
		}
	}
	get("A")
	get("B") // A, B resident (204 bytes with 2-byte TOCs)
	get("A") // bump A to the warm end
	get("C") // exceeds 250: evict B (coldest), keep A and C
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (stats %+v)", st.Evictions, st)
	}
	if c.Peek(Key{App: "B", Order: "scg"}) != nil {
		t.Error("B survived eviction; LRU order wrong")
	}
	if c.Peek(Key{App: "A", Order: "scg"}) == nil || c.Peek(Key{App: "C", Order: "scg"}) == nil {
		t.Error("A or C missing after eviction")
	}
	// Re-requesting B is a miss that rebuilds.
	get("B")
	if st := c.Stats(); st.Builds != 4 {
		t.Errorf("builds = %d, want 4 (A, B, C, B-again)", st.Builds)
	}
}

// TestCacheBudgetSmallerThanArtifact: one artifact larger than the whole
// budget still serves — the newest insertion is never self-evicted.
func TestCacheBudgetSmallerThanArtifact(t *testing.T) {
	c := NewCache(10, func(ctx context.Context, k Key) (*Artifact, error) {
		return stubArtifact(k, 100), nil
	})
	art, _, err := c.Get(context.Background(), Key{App: "A", Order: "scg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Data) != 100 {
		t.Fatalf("artifact truncated to %d bytes", len(art.Data))
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestCacheBuildErrorNotCached: a failed build is reported to every
// waiter but poisons nothing — the next request retries the build.
func TestCacheBuildErrorNotCached(t *testing.T) {
	fail := atomic.Bool{}
	fail.Store(true)
	var builds atomic.Int64
	c := NewCache(0, func(ctx context.Context, k Key) (*Artifact, error) {
		builds.Add(1)
		if fail.Load() {
			return nil, errors.New("transient")
		}
		return stubArtifact(k, 10), nil
	})
	if _, _, err := c.Get(context.Background(), Key{App: "A", Order: "scg"}); err == nil {
		t.Fatal("failed build reported no error")
	}
	fail.Store(false)
	if _, _, err := c.Get(context.Background(), Key{App: "A", Order: "scg"}); err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if got := builds.Load(); got != 2 {
		t.Errorf("builds = %d, want 2 (error not cached)", got)
	}
}

// TestCacheWaiterCancellation: a waiter whose context dies stops waiting
// with ctx's error; the build itself continues and lands for others.
func TestCacheWaiterCancellation(t *testing.T) {
	gate := make(chan struct{})
	c := NewCache(0, func(ctx context.Context, k Key) (*Artifact, error) {
		<-gate
		return stubArtifact(k, 10), nil
	})
	started := make(chan struct{})
	go func() {
		close(started)
		c.Get(context.Background(), Key{App: "A", Order: "scg"})
	}()
	<-started
	time.Sleep(10 * time.Millisecond) // let the builder claim the flight
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Get(ctx, Key{App: "A", Order: "scg"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}
	close(gate)
	// The shared build still completes and is resident for the next call.
	deadline := time.Now().Add(2 * time.Second)
	for c.Peek(Key{App: "A", Order: "scg"}) == nil {
		if time.Now().After(deadline) {
			t.Fatal("build never landed after waiter cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCachePanickingBuildReleasesWaiters is the singleflight-hang
// regression test. Before the deferred-cleanup fix a panicking build
// escaped Get with the inflight entry still registered and f.done never
// closed, so the *next* request for the key parked forever on a flight
// nothing would ever finish — this test then fails via its watchdog
// timeout. After the fix the panic is converted to a build error, the
// flight is removed, and a retry rebuilds cleanly.
func TestCachePanickingBuildReleasesWaiters(t *testing.T) {
	var builds atomic.Int64
	c := NewCache(0, func(ctx context.Context, k Key) (*Artifact, error) {
		if builds.Add(1) == 1 {
			panic("injected build panic")
		}
		return stubArtifact(k, 10), nil
	})
	k := Key{App: "A", Order: "scg"}

	// First call: the build panics. Post-fix, Get returns an error naming
	// the panic; pre-fix, the panic escapes Get and would kill the test
	// process were it not recovered here.
	firstDone := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				firstDone <- fmt.Errorf("panic escaped Get: %v", r)
			}
		}()
		_, _, err := c.Get(context.Background(), k)
		firstDone <- err
	}()
	select {
	case err := <-firstDone:
		if err == nil {
			t.Fatal("panicking build reported no error")
		}
		t.Logf("first Get: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("first Get never returned")
	}

	// Second call for the same key: pre-fix this hangs forever on the
	// leaked flight; post-fix it simply rebuilds.
	secondDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), k)
		secondDone <- err
	}()
	select {
	case err := <-secondDone:
		if err != nil {
			t.Fatalf("retry after panicking build: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second Get hung: the panicking build leaked its inflight entry")
	}
	st := c.Stats()
	if st.Builds != 2 || st.BuildErrors != 1 {
		t.Errorf("stats = %+v, want 2 builds and 1 build error", st)
	}
	if c.Peek(k) == nil {
		t.Error("artifact not resident after the retry")
	}
}

// TestCachePanickingBuildFailsWaitersFast: callers already parked on the
// flight when the build panics get the panic-as-error immediately — no
// lost wakeup.
func TestCachePanickingBuildFailsWaitersFast(t *testing.T) {
	release := make(chan struct{})
	c := NewCache(0, func(ctx context.Context, k Key) (*Artifact, error) {
		<-release
		panic("injected build panic")
	})
	waiting := make(chan Key, 1)
	c.WaitHook = func(k Key) { waiting <- k }
	k := Key{App: "A", Order: "scg"}

	builderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), k)
		builderDone <- err
	}()
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), k)
		waiterDone <- err
	}()
	<-waiting // the waiter is committed to the flight
	close(release)
	for name, ch := range map[string]chan error{"builder": builderDone, "waiter": waiterDone} {
		select {
		case err := <-ch:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Errorf("%s got %v, want a build-panicked error", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never unblocked after the build panicked", name)
		}
	}
}

// TestCacheWaiterCancelThenRetry: a waiter cancels during an in-flight
// build, the build lands anyway, and re-requesting the key serves the
// artifact with exactly one build ever run.
func TestCacheWaiterCancelThenRetry(t *testing.T) {
	var builds atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	c := NewCache(0, func(ctx context.Context, k Key) (*Artifact, error) {
		builds.Add(1)
		started <- struct{}{}
		<-release
		return stubArtifact(k, 10), nil
	})
	waiting := make(chan Key, 1)
	c.WaitHook = func(k Key) { waiting <- k }
	k := Key{App: "A", Order: "scg"}

	builderArt := make(chan *Artifact, 1)
	go func() {
		art, _, err := c.Get(context.Background(), k)
		if err != nil {
			t.Error(err)
		}
		builderArt <- art
	}()
	<-started // the builder owns the flight

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, k)
		waiterErr <- err
	}()
	<-waiting // the waiter is parked on the flight
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}

	close(release)
	art := <-builderArt
	if art == nil {
		t.Fatal("builder got no artifact")
	}

	// The canceled client retries: a pure hit on the landed build.
	again, hit, err := c.Get(context.Background(), k)
	if err != nil || !hit {
		t.Fatalf("retry: hit=%v err=%v, want a hit", hit, err)
	}
	if again != art {
		t.Error("retry served a different artifact than the shared build")
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want exactly 1", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Builds != 1 || st.BuildErrors != 0 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 1 build / 0 build errors", st)
	}
}

// TestCacheBuildErrorsCounter: failed builds advance BuildErrors so
// accounting that equates Builds with resident artifacts can correct for
// transient failures.
func TestCacheBuildErrorsCounter(t *testing.T) {
	fail := atomic.Bool{}
	fail.Store(true)
	c := NewCache(0, func(ctx context.Context, k Key) (*Artifact, error) {
		if fail.Load() {
			return nil, errors.New("transient")
		}
		return stubArtifact(k, 10), nil
	})
	k := Key{App: "A", Order: "scg"}
	if _, _, err := c.Get(context.Background(), k); err == nil {
		t.Fatal("failed build reported no error")
	}
	if st := c.Stats(); st.Builds != 1 || st.BuildErrors != 1 {
		t.Fatalf("after failure: stats = %+v, want builds=1 build_errors=1", st)
	}
	fail.Store(false)
	if _, _, err := c.Get(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 2 || st.BuildErrors != 1 {
		t.Errorf("after retry: stats = %+v, want builds=2 build_errors=1", st)
	}
}

// TestCacheDistinctOrderPolicies: the same app under two policies is two
// keys, two builds, two artifacts.
func TestCacheDistinctOrderPolicies(t *testing.T) {
	var builds atomic.Int64
	c := NewCache(0, func(ctx context.Context, k Key) (*Artifact, error) {
		builds.Add(1)
		return stubArtifact(k, 10+len(k.Order)), nil
	})
	a1, _, err := c.Get(context.Background(), Key{App: "A", Order: "scg"})
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := c.Get(context.Background(), Key{App: "A", Order: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("distinct order policies shared one artifact")
	}
	if got := builds.Load(); got != 2 {
		t.Errorf("builds = %d, want 2", got)
	}
}

// TestBuildRealArtifact: the real pipeline produces a parseable stream
// and unit table for every registered app under the static policy, and
// the ETags are content-addressed (equal bytes ⇒ equal tag).
func TestBuildRealArtifact(t *testing.T) {
	art, err := Build(context.Background(), Key{App: "Hanoi", Order: OrderStatic})
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Data) == 0 || len(art.TOC) == 0 || art.Units == 0 {
		t.Fatalf("degenerate artifact: %d data bytes, %d toc bytes, %d units",
			len(art.Data), len(art.TOC), art.Units)
	}
	again, err := Build(context.Background(), Key{App: "Hanoi", Order: OrderStatic})
	if err != nil {
		t.Fatal(err)
	}
	if art.ETag != again.ETag || art.TOCETag != again.TOCETag {
		t.Error("rebuilding the same key changed the content-addressed ETags")
	}
	if _, err := Build(context.Background(), Key{App: "Hanoi", Order: "bogus"}); err == nil {
		t.Error("unknown order policy built")
	}
	if _, err := Build(context.Background(), Key{App: "NoSuchApp", Order: OrderStatic}); err == nil {
		t.Error("unknown app built")
	}
}

// TestBuildProfilePolicies: the profile-guided policies produce distinct
// streams from the static one (the whole point of restructuring).
func TestBuildProfilePolicies(t *testing.T) {
	scg, err := Build(context.Background(), Key{App: "Hanoi", Order: OrderStatic})
	if err != nil {
		t.Fatal(err)
	}
	test, err := Build(context.Background(), Key{App: "Hanoi", Order: OrderTest})
	if err != nil {
		t.Fatal(err)
	}
	if scg.ETag == test.ETag && fmt.Sprintf("%x", scg.Data) == fmt.Sprintf("%x", test.Data) {
		// Identical is possible in principle (perfect static prediction)
		// but for Hanoi the orders differ; treat sameness as a wiring bug.
		t.Error("scg and test policies produced identical streams")
	}
	if test.Units != scg.Units {
		t.Errorf("unit count differs across policies: scg=%d test=%d", scg.Units, test.Units)
	}
}

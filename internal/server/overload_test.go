package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/stream"
	"nonstrict/internal/synth"
)

// blockingBuilder is a build function whose completions the test
// controls: each build parks until its key's gate channel is closed,
// and records the order builds started in.
type blockingBuilder struct {
	mu      sync.Mutex
	gates   map[Key]chan struct{}
	started []Key
}

func newBlockingBuilder() *blockingBuilder {
	return &blockingBuilder{gates: make(map[Key]chan struct{})}
}

func (b *blockingBuilder) gate(k Key) chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.gates[k]
	if !ok {
		g = make(chan struct{})
		b.gates[k] = g
	}
	return g
}

func (b *blockingBuilder) build(ctx context.Context, k Key) (*Artifact, error) {
	b.mu.Lock()
	b.started = append(b.started, k)
	b.mu.Unlock()
	<-b.gate(k)
	return storeArt(k.App, k.Order, []byte("built "+k.App), []byte("toc")), nil
}

func (b *blockingBuilder) startedKeys() []Key {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Key(nil), b.started...)
}

func key(i int) Key { return Key{App: fmt.Sprintf("app%02d", i), Order: OrderStatic} }

// waitStarted spins until n builds have entered the build function.
func waitStarted(t *testing.T, bb *blockingBuilder, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(bb.startedKeys()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d builds start", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued spins until the cache's slot queue holds n reservations.
func waitQueued(t *testing.T, c *Cache, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		s := c.slots
		c.mu.Unlock()
		if s != nil && s.queued() >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot queue never reached %d reservations", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedsQueueFull: with one build slot and a queue of one,
// a third cold key is refused synchronously with a Retry-After hint —
// and refusals do not leak goroutines.
func TestAdmissionShedsQueueFull(t *testing.T) {
	bb := newBlockingBuilder()
	c := NewCache(0, bb.build)
	c.Admit = AdmitConfig{Enabled: true, MaxBuilds: 1, MaxQueue: 1, BreakerThreshold: -1}
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // key0 takes the slot, key1 the queue seat
		wg.Add(1)
		go func(k Key) {
			defer wg.Done()
			if _, _, err := c.Get(ctx, k); err != nil {
				t.Errorf("admitted Get(%v): %v", k, err)
			}
		}(key(i))
	}
	waitQueued(t, c, 1)

	runtime.GC()
	before := runtime.NumGoroutine()
	const storm = 100
	for i := 0; i < storm; i++ {
		_, _, err := c.Get(ctx, key(2+i))
		var shed *ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("Get over capacity = %v, want ShedError", err)
		}
		if shed.Reason != "queue-full" {
			t.Fatalf("shed reason %q, want queue-full", shed.Reason)
		}
		if shed.RetryAfter <= 0 {
			t.Fatalf("shed carries no Retry-After hint")
		}
		if !errors.Is(err, ErrShed) {
			t.Fatalf("ShedError does not unwrap to ErrShed")
		}
	}
	// Sheds are synchronous: the storm must not have parked anything.
	if after := runtime.NumGoroutine(); after > before+3 {
		t.Fatalf("shed storm grew goroutines %d -> %d", before, after)
	}
	if got := c.Stats().Shed; got != storm {
		t.Fatalf("shed_total = %d, want %d", got, storm)
	}

	close(bb.gate(key(0)))
	close(bb.gate(key(1)))
	wg.Wait()
	if got := c.Stats().Builds; got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
}

// TestPriorityBypassesQueueBound: a Range demand fetch is admitted past
// a full queue and is handed the next freed slot before queued cold
// builds.
func TestPriorityBypassesQueueBound(t *testing.T) {
	bb := newBlockingBuilder()
	c := NewCache(0, bb.build)
	c.Admit = AdmitConfig{Enabled: true, MaxBuilds: 1, MaxQueue: 1, BreakerThreshold: -1}
	ctx := context.Background()

	var wg sync.WaitGroup
	get := func(k Key, priority bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := c.Get
			if priority {
				fn = c.GetPriority
			}
			if _, _, err := fn(ctx, k); err != nil {
				t.Errorf("Get(%v): %v", k, err)
			}
		}()
	}
	get(key(0), false) // takes the slot
	waitStarted(t, bb, 1)
	get(key(1), false) // fills the queue
	waitQueued(t, c, 1)

	// The queue is full: a normal miss sheds...
	if _, _, err := c.Get(ctx, key(2)); !errors.Is(err, ErrShed) {
		t.Fatalf("normal Get with full queue = %v, want shed", err)
	}
	// ...but a priority miss is admitted.
	get(key(3), true)
	waitQueued(t, c, 2)

	// Free the slot: the priority reservation must build before the
	// older normal one.
	close(bb.gate(key(0)))
	close(bb.gate(key(3)))
	close(bb.gate(key(1)))
	wg.Wait()

	started := bb.startedKeys()
	if len(started) != 3 || started[0] != key(0) || started[1] != key(3) || started[2] != key(1) {
		t.Fatalf("build order %v, want [app00 app03 app01]", started)
	}
}

// failingBuilder fails until healed.
type failingBuilder struct {
	mu     sync.Mutex
	healed bool
	builds int
}

func (b *failingBuilder) heal() {
	b.mu.Lock()
	b.healed = true
	b.mu.Unlock()
}

func (b *failingBuilder) build(ctx context.Context, k Key) (*Artifact, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.builds++
	if !b.healed {
		return nil, fmt.Errorf("backend down")
	}
	return storeArt(k.App, k.Order, []byte("recovered"), []byte("toc")), nil
}

// TestBreakerTripsAndRecovers drives a key through the whole breaker
// cycle: consecutive failures trip it, callers inside the cooldown are
// shed without touching the pipeline, and after the cooldown a single
// successful probe closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	fb := &failingBuilder{}
	c := NewCache(0, fb.build)
	const cooldown = 50 * time.Millisecond
	c.Admit = AdmitConfig{Enabled: true, BreakerThreshold: 2, BreakerCooldown: cooldown}
	ctx := context.Background()
	k := key(0)

	for i := 0; i < 2; i++ {
		if _, _, err := c.Get(ctx, k); err == nil || errors.Is(err, ErrShed) {
			t.Fatalf("failure %d: err = %v, want plain build error", i, err)
		}
	}
	if st := c.BreakerState(k); st != BreakerOpen {
		t.Fatalf("after %d failures breaker is %v, want open", 2, st)
	}
	if got := c.Stats().BreakerTrips; got != 1 {
		t.Fatalf("breaker_trips = %d, want 1", got)
	}

	// Inside the cooldown: shed, and the pipeline is not consulted.
	builds := fb.builds
	_, _, err := c.Get(ctx, k)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "breaker-open" {
		t.Fatalf("Get while open = %v, want breaker-open shed", err)
	}
	if shed.RetryAfter <= 0 || shed.RetryAfter > cooldown {
		t.Fatalf("breaker shed hints %v, want (0, %v]", shed.RetryAfter, cooldown)
	}
	if fb.builds != builds {
		t.Fatal("a shed request reached the build pipeline")
	}

	// After the cooldown the probe goes through; healed, it closes.
	fb.heal()
	time.Sleep(cooldown + 10*time.Millisecond)
	if _, _, err := c.Get(ctx, k); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if st := c.BreakerState(k); st != BreakerClosed {
		t.Fatalf("after successful probe breaker is %v, want closed", st)
	}
	// Trips only ever grow; recovery does not rewind the counter.
	if got := c.Stats().BreakerTrips; got != 1 {
		t.Fatalf("breaker_trips = %d after recovery, want 1", got)
	}
}

// TestBreakerReopensOnFailedProbe: a probe that fails re-opens the
// breaker immediately (no second threshold accumulation).
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	fb := &failingBuilder{}
	c := NewCache(0, fb.build)
	const cooldown = 30 * time.Millisecond
	c.Admit = AdmitConfig{Enabled: true, BreakerThreshold: 1, BreakerCooldown: cooldown}
	ctx := context.Background()
	k := key(0)

	if _, _, err := c.Get(ctx, k); err == nil {
		t.Fatal("want build error")
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	if _, _, err := c.Get(ctx, k); err == nil || errors.Is(err, ErrShed) {
		t.Fatalf("probe = %v, want plain build error", err)
	}
	if st := c.BreakerState(k); st != BreakerOpen {
		t.Fatalf("after failed probe breaker is %v, want open", st)
	}
	if got := c.Stats().BreakerTrips; got != 2 {
		t.Fatalf("breaker_trips = %d, want 2", got)
	}
}

// TestBreakerShedNoGoroutines: a tripped key sheds a storm of callers
// without queuing a single goroutine — the property that makes an
// outage cheap instead of a pile-up.
func TestBreakerShedNoGoroutines(t *testing.T) {
	fb := &failingBuilder{}
	c := NewCache(0, fb.build)
	c.Admit = AdmitConfig{Enabled: true, BreakerThreshold: 1, BreakerCooldown: time.Hour}
	ctx := context.Background()
	k := key(0)
	if _, _, err := c.Get(ctx, k); err == nil {
		t.Fatal("want build error")
	}

	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		if _, _, err := c.Get(ctx, k); !errors.Is(err, ErrShed) {
			t.Fatalf("Get %d = %v, want shed", i, err)
		}
	}
	if after := runtime.NumGoroutine(); after > before+3 {
		t.Fatalf("breaker sheds grew goroutines %d -> %d", before, after)
	}
	if got := c.Stats().Shed; got != 200 {
		t.Fatalf("shed_total = %d, want 200", got)
	}
	if fb.builds != 1 {
		t.Fatalf("pipeline ran %d times, want 1", fb.builds)
	}
}

// TestAdmissionDisabledUnchanged: the zero AdmitConfig preserves the
// original synchronous semantics — no slots, no breakers, no sheds.
func TestAdmissionDisabledUnchanged(t *testing.T) {
	fb := &failingBuilder{}
	c := NewCache(0, fb.build)
	ctx := context.Background()
	k := key(0)
	for i := 0; i < 10; i++ {
		if _, _, err := c.Get(ctx, k); err == nil || errors.Is(err, ErrShed) {
			t.Fatalf("Get %d = %v, want plain build error (no shedding without admission)", i, err)
		}
	}
	if st := c.Stats(); st.Shed != 0 || st.BreakerTrips != 0 || st.BuildErrors != 10 {
		t.Fatalf("stats = %+v, want 10 plain build errors", st)
	}
}

// TestDrainLifecycle covers the HTTP lifecycle surface: healthz always
// answers, readyz flips on drain, resident artifacts still serve while
// draining, and non-resident ones are shed with Retry-After.
func TestDrainLifecycle(t *testing.T) {
	s, err := New(Config{Apps: []string{benchApp}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Warm(context.Background(), benchApp); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, http.Header) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Result().Header
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz = %d before drain", code)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("readyz = %d before drain", code)
	}
	if code, _ := get("/apps/" + benchApp + "/app"); code != 200 {
		t.Fatalf("resident app = %d before drain", code)
	}

	s.BeginDrain()
	if !s.draining.Load() {
		t.Fatal("not draining after BeginDrain")
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz = %d while draining, want 200 (alive, not ready)", code)
	}
	if code, hdr := get("/readyz"); code != 503 || hdr.Get("Retry-After") == "" {
		t.Fatalf("readyz = %d (Retry-After %q) while draining, want 503 + hint", code, hdr.Get("Retry-After"))
	}
	// Resident artifact: still served, streams may finish.
	if code, _ := get("/apps/" + benchApp + "/app"); code != 200 {
		t.Fatalf("resident app = %d while draining, want 200", code)
	}
}

// stormSuite registers the synthetic overload apps once per test binary
// (the app registry is process-global). The apps are deliberately heavy
// (tens of milliseconds per cold build) so the storm's arrivals land
// while the single build slot is genuinely busy.
var stormSuite = sync.OnceValues(func() ([]string, error) {
	names, _, err := synth.RegisterSuite(0x0DDB41, 8, synth.Params{
		Name: "servebench", Classes: 16, MethodsPerClass: 24, BodyScale: 12,
	})
	return names, err
})

// p99TTFU measures warm time-to-first-unit for n round-robin fetches
// across the suite and returns the nearest-rank p99 in milliseconds.
func p99TTFU(t *testing.T, tsURL string, names []string, ends map[string]int64, n int) float64 {
	t.Helper()
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		name := names[i%len(names)]
		_, ttfu := fetchStream(t, tsURL+"/apps/"+name+"/app", ends[name])
		samples = append(samples, float64(ttfu)/float64(time.Millisecond))
	}
	sort.Float64s(samples)
	idx := int(0.99*float64(len(samples))+0.9999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// TestOverloadStorm is the overload-protection proof: a cold-build
// storm of 10x the admission queue's capacity against a 1-slot, 4-deep
// queue must shed with 503 + Retry-After, leak no goroutines once
// settled, and leave warm p99 time-to-first-unit within 2x an
// uncontended baseline (with a small absolute floor so a fast machine
// cannot fail on noise).
func TestOverloadStorm(t *testing.T) {
	names, err := stormSuite()
	if err != nil {
		t.Fatal(err)
	}
	admit := AdmitConfig{Enabled: true, MaxBuilds: 1, MaxQueue: 4, RetryAfter: time.Second}
	offered := 10 * admit.MaxQueue

	// Uncontended baseline: same suite, no admission, warm.
	base, err := New(Config{Apps: names})
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(base.Handler())
	defer bts.Close()
	ends := make(map[string]int64, len(names))
	for _, name := range names {
		if _, err := base.Warm(t.Context(), name); err != nil {
			t.Fatal(err)
		}
		ends[name] = firstUnitEnd(t, bts.URL, name)
	}
	baselineP99 := p99TTFU(t, bts.URL, names, ends, 100)

	// The storm: every request cold, 10x the queue's capacity at once.
	srv, err := New(Config{Apps: names, Admit: admit})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// idle counts goroutines with no keep-alive connection open on
	// either side: an idle connection parks two client goroutines and
	// one server goroutine, and how many the storm leaves idle is the
	// transport's business, not a leak. The closed connections'
	// goroutines exit on their own schedule, so the count is read once
	// it has held still for 20 ms.
	idle := func() int {
		http.DefaultClient.CloseIdleConnections()
		bts.CloseClientConnections()
		ts.CloseClientConnections()
		n, still := runtime.NumGoroutine(), 0
		for i := 0; still < 10 && i < 500; i++ {
			time.Sleep(2 * time.Millisecond)
			if m := runtime.NumGoroutine(); m != n {
				n, still = m, 0
			} else {
				still++
			}
		}
		return n
	}
	settled := idle()
	var served, shed, withRetryAfter, badStatus atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/apps/" + names[i%len(names)] + "/app")
			if err != nil {
				badStatus.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				served.Add(1)
			case http.StatusServiceUnavailable:
				shed.Add(1)
				if resp.Header.Get("Retry-After") != "" {
					withRetryAfter.Add(1)
				}
			default:
				badStatus.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := badStatus.Load(); n != 0 {
		t.Fatalf("overload storm: %d requests neither served nor shed", n)
	}
	if shed.Load() == 0 {
		t.Fatal("overload storm shed nothing; admission is not engaging")
	}
	if served.Load() == 0 {
		t.Fatal("overload storm served nothing; shedding must not starve admitted work")
	}
	if withRetryAfter.Load() != shed.Load() {
		t.Fatalf("%d of %d shed responses carried Retry-After", withRetryAfter.Load(), shed.Load())
	}

	// Settle: the storm's transient goroutines (clients, handlers, the
	// bounded builds) must all exit — shed requests own nothing.
	deadline := time.Now().Add(5 * time.Second)
	leak := idle() - settled
	for leak != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		leak = idle() - settled
	}
	if leak != 0 {
		t.Fatalf("overload storm leaked %d goroutines", leak)
	}

	// Warm the shed keys (honoring Retry-After) and measure the warm
	// path with admission enabled.
	for _, name := range names {
		for {
			resp, err := http.Get(ts.URL + "/apps/" + name + "/app")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("warming %s: %s", name, resp.Status)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	warmP99 := p99TTFU(t, ts.URL, names, ends, 100)
	const p99Floor = 25.0 // ms; below this, ratio noise is meaningless
	if baselineP99 > 0 && warmP99 > 2*baselineP99 && warmP99 > p99Floor {
		t.Fatalf("warm p99 ttfu %.2fms is %.2fx the uncontended baseline %.2fms; acceptance wants <= 2x",
			warmP99, warmP99/baselineP99, baselineP99)
	}
	t.Logf("offered %d against queue %d: served %d, shed %d, warm p99 %.2fms vs baseline %.2fms",
		offered, admit.MaxQueue, served.Load(), shed.Load(), warmP99, baselineP99)
}

// benchApp is the one-app workload of the overload and restart tests;
// Hanoi is the smallest registered app, so a cold build is quick.
const benchApp = "Hanoi"

// fetchStream GETs the app stream and returns total bytes plus the time
// from request start to the first unit's last byte (time-to-first-unit).
func fetchStream(tb testing.TB, url string, firstUnitEnd int64) (n int64, ttfu time.Duration) {
	tb.Helper()
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s: %s", url, resp.Status)
	}
	buf := make([]byte, 32*1024)
	for {
		m, err := resp.Body.Read(buf)
		n += int64(m)
		if ttfu == 0 && n >= firstUnitEnd {
			ttfu = time.Since(start)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	if ttfu == 0 {
		ttfu = time.Since(start)
	}
	return n, ttfu
}

// firstUnitEnd parses app's served unit table and returns the stream
// offset one past the first unit.
func firstUnitEnd(tb testing.TB, tsURL, app string) int64 {
	tb.Helper()
	resp, err := http.Get(tsURL + "/apps/" + app + "/app.toc")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	toc, err := stream.ParseTOC(raw)
	if err != nil {
		tb.Fatal(err)
	}
	if len(toc) == 0 {
		tb.Fatalf("%s: empty unit table", app)
	}
	return toc[0].Off + int64(toc[0].Len)
}

package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nonstrict/internal/pipeline"
)

// DefaultCacheBytes is the artifact cache's byte budget when Config
// leaves it zero: enough for every registered benchmark many times over,
// small enough to matter under a deliberately tiny test budget.
const DefaultCacheBytes = 64 << 20

// Key identifies one cached artifact: the benchmark and the order policy
// its stream was restructured under. Two policies for the same app are
// distinct artifacts with distinct bytes and ETags.
type Key struct {
	App   string
	Order string
}

func (k Key) String() string { return k.App + "/" + k.Order }

// Artifact is one fully built, immutable serving unit: the interleaved
// stream bytes, the precomputed marshaled unit table, and the
// content-addressed validators for both. Every concurrent request for
// the same (app, order) serves slices of the same byte arrays — the hot
// path never copies or rebuilds them. Nothing in an Artifact may be
// mutated after Build returns it.
type Artifact struct {
	Key Key
	// Data is the interleaved virtual-file stream (header + units).
	Data []byte
	// TOC is the marshaled unit table served at /apps/{name}/app.toc.
	TOC []byte
	// ETag and TOCETag are strong validators derived from the content
	// (sha256 prefixes), so repeat clients revalidate to 304 for free.
	ETag, TOCETag string
	// Units is the stream's unit count.
	Units int
	// BuildTime is the wall-clock time the compile → predict →
	// restructure → serialize pipeline took for this artifact.
	BuildTime time.Duration
	// Stages splits BuildTime by pipeline stage. Stages that ran side by
	// side each count in full, so they can sum to more than BuildTime. It
	// describes the build that ran in this process and is not persisted:
	// an artifact reloaded from a store or filled from a peer carries
	// zeros.
	Stages pipeline.Durations
	// PeerFilled marks an artifact whose bytes were transferred from a
	// cluster peer instead of produced by the local build pipeline. The
	// cache counts such flights under PeerFills, never Builds, so the
	// cluster-wide "one pipeline build per key" invariant is checkable by
	// summing Builds across nodes.
	PeerFilled bool

	// durable, when non-nil, is closed once the cache's store write-back
	// of this artifact has returned. It is nil when there is nothing to
	// write: no store, or an artifact the store itself returned.
	durable chan struct{}
}

// size is the artifact's accountable footprint against the cache budget.
func (a *Artifact) size() int64 { return int64(len(a.Data) + len(a.TOC)) }

// waitDurable returns once a's store write-back has returned (at once
// when a has none), or with ctx's error if ctx ends first.
func (a *Artifact) waitDurable(ctx context.Context) error {
	if a.durable == nil {
		return nil
	}
	select {
	case <-a.durable:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// persisting reports whether a's store write-back is still running.
func (a *Artifact) persisting() bool {
	if a.durable == nil {
		return false
	}
	select {
	case <-a.durable:
		return false
	default:
		return true
	}
}

// CacheStats is a point-in-time snapshot of the cache's counters. The
// JSON tags are the schema of the "cache" block in the fleet report.
type CacheStats struct {
	// Hits is requests answered from a resident artifact.
	Hits int64 `json:"hits"`
	// Misses is requests that found no resident artifact (the builder or
	// an in-flight build's waiters; one build can absorb many misses).
	Misses int64 `json:"misses"`
	// Builds is pipeline executions — the number the warm path must
	// never advance. Cluster peer fills are NOT builds (see PeerFills):
	// summing Builds across a cluster therefore counts pipeline runs, and
	// the cluster invariant is that the sum never exceeds the key count.
	Builds int64 `json:"builds"`
	// PeerFills is misses satisfied by transferring the verified artifact
	// from the owning cluster peer — no pipeline ran here.
	PeerFills int64 `json:"peer_fills"`
	// Evictions is artifacts dropped to fit the byte budget.
	Evictions int64 `json:"evictions"`
	// BuildErrors is builds that returned an error (or panicked) and so
	// published no artifact. Accounting that expects Builds to equal the
	// artifact count (the /apps index, the fleet gate) must subtract
	// these: after a transient build failure Builds advances but the
	// resident set does not.
	BuildErrors int64 `json:"build_errors"`
	// BuildSeconds is wall-clock seconds spent inside the build pipeline.
	BuildSeconds float64 `json:"build_seconds"`
	// Shed is requests refused by admission control (bounded build
	// queue or a tripped circuit breaker) — each one was answered
	// synchronously with a Retry-After hint and cost no pipeline work.
	Shed int64 `json:"shed_total"`
	// BreakerTrips is how many times any key's circuit breaker opened;
	// it only grows.
	BreakerTrips int64 `json:"breaker_trips"`
	// StoreHits and StoreMisses count misses that were satisfied from
	// (or fell through) the persistent artifact store. A store hit
	// publishes the artifact without advancing Builds — that is the
	// warm-restart contract.
	StoreHits   int64 `json:"store_hits"`
	StoreMisses int64 `json:"store_misses"`
	// Bytes and Entries describe the resident set.
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
}

// Cache is a content-addressed artifact cache with singleflight build
// dedup and LRU eviction under a byte budget. N concurrent cold requests
// for one key cost exactly one build: the first caller runs the
// pipeline, the rest wait on its result. Warm requests are a map lookup
// plus an LRU bump — zero pipeline work, shared immutable bytes.
type Cache struct {
	budget int64
	build  func(ctx context.Context, k Key) (*Artifact, error)

	// WaitHook, when non-nil, runs in a waiter's goroutine after it has
	// found an in-flight build and counted its miss, immediately before
	// it parks on the flight. It exists for the deterministic
	// interleaving checker (internal/check) and for tests that must know
	// a waiter is committed before scheduling the next event; production
	// servers leave it nil. Set it before the cache sees traffic.
	WaitHook func(Key)

	// Store, when non-nil, is the persistent tier consulted before the
	// build pipeline and written back after it: a miss that the store
	// satisfies publishes the stored artifact without counting a build,
	// so a restarted server is warm. A built artifact is published
	// before it is persisted: the write-back runs on a goroutine of its
	// own after the flight resolves, and the artifact's durable signal
	// says when it has returned. Set it before the cache sees traffic.
	Store Store

	// Admit is the overload policy; the zero value disables admission
	// control and preserves the pre-admission semantics the
	// interleaving checker pins. Set it before the cache sees traffic.
	Admit AdmitConfig

	mu       sync.Mutex
	entries  map[Key]*list.Element
	lru      *list.List // front = most recently used
	bytes    int64
	inflight map[Key]*flight
	admitCfg AdmitConfig // resolved Admit, once traffic starts
	slots    *buildSlots
	breakers map[Key]*Breaker

	hits, misses, builds, evictions atomic.Int64
	peerFills                       atomic.Int64
	buildErrors                     atomic.Int64
	buildNanos                      atomic.Int64
	stageNanos                      [pipeline.NumStages]atomic.Int64
	shed                            atomic.Int64
	storeHits, storeMisses          atomic.Int64
}

type cacheEntry struct {
	key Key
	art *Artifact
}

// flight is one in-progress build and its waiters.
type flight struct {
	done chan struct{}
	art  *Artifact
	err  error
	// fromStore marks a flight satisfied by the persistent store: the
	// artifact was published, but no build ran and Builds must not
	// advance.
	fromStore bool
}

// NewCache builds a cache with the given byte budget (0 or negative
// selects DefaultCacheBytes) over the given build function.
func NewCache(budget int64, build func(ctx context.Context, k Key) (*Artifact, error)) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &Cache{
		budget:   budget,
		build:    build,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		inflight: make(map[Key]*flight),
	}
}

// Get returns the artifact for k, building it at most once no matter how
// many callers arrive concurrently. hit reports whether the artifact was
// already resident (no build, no wait). ctx bounds only this caller's
// wait: the build itself is never canceled by one impatient client,
// because its result is shared by every waiter and by future requests.
//
// With admission control enabled, a miss that the overload policy
// refuses returns a *ShedError synchronously — no goroutine is spawned
// and no queue slot is held on behalf of a shed caller.
func (c *Cache) Get(ctx context.Context, k Key) (art *Artifact, hit bool, err error) {
	return c.get(ctx, k, false)
}

// GetPriority is Get for demand-fetch traffic: the caller is a client
// stalled mid-execution on these bytes, so its build reservation skips
// the queue bound and jumps freed slots. With admission disabled it is
// identical to Get.
func (c *Cache) GetPriority(ctx context.Context, k Key) (art *Artifact, hit bool, err error) {
	return c.get(ctx, k, true)
}

func (c *Cache) get(ctx context.Context, k Key, priority bool) (art *Artifact, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		art := el.Value.(*cacheEntry).art
		c.mu.Unlock()
		c.hits.Add(1)
		return art, true, nil
	}
	if f, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		c.misses.Add(1)
		if c.WaitHook != nil {
			c.WaitHook(k)
		}
		select {
		case <-f.done:
			return f.art, false, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	if !c.Admit.Enabled {
		f := &flight{done: make(chan struct{})}
		c.inflight[k] = f
		c.mu.Unlock()
		c.misses.Add(1)
		c.runBuild(k, f, nil)
		return f.art, false, f.err
	}

	// Admission-controlled miss. The shed decision is made here, under
	// the same lock that serializes flight creation, and returned
	// synchronously: a shed caller owns no flight, no goroutine, and no
	// queue slot. Flight creation is serialized per key, so at most one
	// caller at a time negotiates with this key's breaker.
	c.ensureAdmitLocked()
	br := c.breakerLocked(k)
	if ok, after := br.Allow(); !ok {
		c.mu.Unlock()
		c.shed.Add(1)
		return nil, false, &ShedError{Key: k, RetryAfter: after, Reason: "breaker-open"}
	}
	ready, ok := c.slots.reserve(priority)
	if !ok {
		br.CancelProbe()
		c.mu.Unlock()
		c.shed.Add(1)
		return nil, false, &ShedError{Key: k, RetryAfter: c.admitCfg.RetryAfter, Reason: "queue-full"}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[k] = f
	c.mu.Unlock()
	c.misses.Add(1)
	go func() {
		if ready != nil {
			<-ready
		}
		defer c.slots.release()
		c.runBuild(k, f, br)
	}()
	select {
	case <-f.done:
		return f.art, false, f.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// ensureAdmitLocked resolves the Admit policy on first admission-
// controlled miss; callers hold c.mu.
func (c *Cache) ensureAdmitLocked() {
	if c.slots != nil {
		return
	}
	c.admitCfg = c.Admit.withDefaults()
	c.slots = newBuildSlots(c.admitCfg.MaxBuilds, c.admitCfg.MaxQueue)
	c.breakers = make(map[Key]*Breaker)
}

// breakerLocked returns k's circuit breaker, creating it on first use;
// callers hold c.mu.
func (c *Cache) breakerLocked(k Key) *Breaker {
	br, ok := c.breakers[k]
	if !ok {
		br = NewBreaker(c.admitCfg.BreakerThreshold, c.admitCfg.BreakerCooldown)
		c.breakers[k] = br
	}
	return br
}

// BreakerState reports the current breaker position for k; keys that
// never tripped admission report closed.
func (c *Cache) BreakerState(k Key) BreakerState {
	c.mu.Lock()
	br := c.breakers[k]
	c.mu.Unlock()
	if br == nil {
		return BreakerClosed
	}
	return br.State()
}

// runBuild satisfies the flight for k — from the persistent store when
// it has an intact entry, else by running the build pipeline — and
// publishes the outcome into f. The cleanup is deferred so it runs even
// when the build function panics: the panic becomes an ordinary build
// error, the flight is removed, and f.done is closed, so waiters fail
// fast. A non-deferred epilogue here once leaked the inflight entry on
// panic and left f.done open forever — every later request for the key
// then parked on a flight nothing would ever finish.
//
// br, when non-nil, is k's circuit breaker; the outcome is recorded
// BEFORE f.done closes, so a caller that saw the flight resolve also
// sees the breaker state the outcome implies.
//
// A built artifact is published first and persisted after: once f.done
// has closed, the store write-back starts on a goroutine of its own, so
// neither the waiters nor the caller's admission slot wait for the disk.
// The artifact's durable signal closes when the write-back returns.
func (c *Cache) runBuild(k Key, f *flight, br *Breaker) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			f.art, f.err = nil, fmt.Errorf("server: building %s: build panicked: %v", k, r)
		}
		switch {
		case f.fromStore:
			// A store reload ran no pipeline and transferred no peer
			// bytes; StoreHits already counted it.
		case f.err == nil && f.art.PeerFilled:
			// The artifact's bytes came from the owning peer: the
			// pipeline ran over there (and was counted over there).
			c.peerFills.Add(1)
		default:
			c.builds.Add(1)
			c.buildNanos.Add(int64(time.Since(start)))
			if f.err != nil {
				c.buildErrors.Add(1)
			} else {
				for s, d := range f.art.Stages {
					c.stageNanos[s].Add(int64(d))
				}
			}
		}
		if br != nil {
			br.Record(f.err != nil)
		}
		c.mu.Lock()
		delete(c.inflight, k)
		if f.err == nil {
			c.insertLocked(k, f.art)
		}
		c.mu.Unlock()
		close(f.done)
		if f.err == nil && f.art.durable != nil {
			go c.writeBack(f.art)
		}
	}()
	if c.Store != nil {
		if art, err := c.Store.Get(k); err == nil {
			c.storeHits.Add(1)
			f.art, f.fromStore = art, true
			return
		}
		// Any store failure — a miss or a quarantined entry — falls
		// through to a clean rebuild; the store never serves doubt.
		c.storeMisses.Add(1)
	}
	// context.Background(), deliberately: the artifact outlives the
	// request that happened to arrive first.
	art, err := c.build(context.Background(), k)
	if err != nil {
		err = fmt.Errorf("server: building %s: %w", k, err)
	}
	if err == nil && c.Store != nil {
		// The build function's artifact may be shared with its caller;
		// the one this cache publishes carries its own durable signal.
		a := *art
		a.durable = make(chan struct{})
		art = &a
	}
	f.art, f.err = art, err
}

// writeBack persists a built artifact and then closes its durable
// signal. Write-back is best-effort: a store that cannot persist must
// not fail the requests the pipeline already satisfied. The store counts
// its own put errors.
func (c *Cache) writeBack(a *Artifact) {
	defer close(a.durable)
	_ = c.Store.Put(a)
}

// Peek returns the resident artifact for k without building, waiting, or
// counting a hit — the observability path.
func (c *Cache) Peek(k Key) *Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		return el.Value.(*cacheEntry).art
	}
	return nil
}

// insertLocked adds art under k and evicts from the cold end until the
// resident set fits the budget again. The newly inserted artifact is
// never evicted by its own insertion, so a budget smaller than one
// artifact still serves (with a resident set of exactly one).
func (c *Cache) insertLocked(k Key, art *Artifact) {
	if el, ok := c.entries[k]; ok {
		// A racing build for the same key already landed; keep the
		// resident copy authoritative.
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&cacheEntry{key: k, art: art})
	c.entries[k] = el
	c.bytes += art.size()
	for c.bytes > c.budget && c.lru.Len() > 1 {
		last := c.lru.Back()
		e := last.Value.(*cacheEntry)
		c.lru.Remove(last)
		delete(c.entries, e.key)
		c.bytes -= e.art.size()
		c.evictions.Add(1)
	}
}

// BuildStages splits Stats().BuildSeconds by pipeline stage, as far as the
// published artifacts say (Artifact.Stages). The sum stays below
// BuildSeconds: that also covers failed builds, builds whose artifact
// carries no stage times, and the work around the stages (constructing
// the app, hashing, the store probe). The one exception is a
// profile-guided build, whose static and profile stages run side by side
// and so count twice over the same wall time.
func (c *Cache) BuildStages() pipeline.Durations {
	var d pipeline.Durations
	for s := range d {
		d[s] = time.Duration(c.stageNanos[s].Load())
	}
	return d
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	bytes, entries := c.bytes, c.lru.Len()
	var trips int64
	for _, br := range c.breakers {
		trips += br.Trips()
	}
	c.mu.Unlock()
	return CacheStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Builds:       c.builds.Load(),
		PeerFills:    c.peerFills.Load(),
		Evictions:    c.evictions.Load(),
		BuildErrors:  c.buildErrors.Load(),
		BuildSeconds: time.Duration(c.buildNanos.Load()).Seconds(),
		Shed:         c.shed.Load(),
		BreakerTrips: trips,
		StoreHits:    c.storeHits.Load(),
		StoreMisses:  c.storeMisses.Load(),
		Bytes:        bytes,
		Entries:      entries,
	}
}

package check

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"nonstrict/internal/server"
)

// cacheOptions configures the cache interleaving check.
type cacheOptions struct {
	// Ops is the concurrent Get count per scenario (default 3).
	Ops int
	// Keys is the distinct key count (default 2).
	Keys int
	// MaxSchedules guards against enumeration explosion per scenario
	// (default 100000). Exceeding it is an error, never silent sampling.
	MaxSchedules int
}

// cacheReport summarizes one exhaustive cache check.
type cacheReport struct {
	Scenarios int
	Schedules int
}

// checkCache enumerates every schedule of every generated scenario and
// replays each against a real server.Cache, diffing all observables
// against the executable spec. The first divergence aborts the walk
// with an error naming the scenario, schedule, and step.
func checkCache(opts cacheOptions) (*cacheReport, error) {
	if opts.Ops <= 0 {
		opts.Ops = 3
	}
	if opts.Keys <= 0 {
		opts.Keys = 2
	}
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = 100000
	}
	scenarios := cacheScenarios(opts.Ops, opts.Keys)
	rep := &cacheReport{Scenarios: len(scenarios)}
	var err error
	rep.Schedules, err = forEachScenario(scenarios, func(sc *cacheScenario) (int, error) {
		return enumerate(sc, newCacheSpec(sc), opts.MaxSchedules, func(cs schedule[cacheStep, *cacheSpec]) error {
			return runCacheSchedule(sc, cs)
		})
	})
	return rep, err
}

// cacheKey maps a scenario key index to a real cache key.
func cacheKey(i int) server.Key {
	return server.Key{App: "k" + strconv.Itoa(i), Order: "scg"}
}

func keyIndex(k server.Key) int {
	i, _ := strconv.Atoi(strings.TrimPrefix(k.App, "k"))
	return i
}

// specArtifact fabricates the artifact a scripted build with sequence
// number seq publishes: artDataLen bytes of a seq-derived pattern the
// checker re-verifies later (any post-publish mutation breaks it), plus
// a fixed TOC, for a footprint of exactly artBytes.
func specArtifact(k server.Key, seq int) *server.Artifact {
	data := make([]byte, artDataLen)
	for j := range data {
		data[j] = byte(seq + j)
	}
	return &server.Artifact{Key: k, Data: data, TOC: []byte("[]")}
}

// verifySpecArtifact re-checks the pattern, pinning "no artifact byte
// mutated after publish".
func verifySpecArtifact(art *server.Artifact, seq int) error {
	if len(art.Data) != artDataLen || len(art.TOC) != artTOCLen {
		return fmt.Errorf("artifact reshaped after publish: %d data / %d toc bytes", len(art.Data), len(art.TOC))
	}
	for j, b := range art.Data {
		if b != byte(seq+j) {
			return fmt.Errorf("artifact byte %d mutated after publish: %#x, want %#x", j, b, byte(seq+j))
		}
	}
	return nil
}

// buildRelease is the controller's go-signal to a parked scripted build.
type buildRelease struct {
	outcome buildOutcome
	seq     int
}

// cacheHarness drives one real Cache through one annotated schedule.
type cacheHarness struct {
	mu      sync.Mutex
	release map[int]chan buildRelease // key index → parked build's release
	started chan int                  // key index, sent as a build enters
	waited  chan int                  // key index, sent as a waiter parks
}

// build is the scripted build function: it announces itself, parks
// until the controller's finish step releases it, then obeys the
// scripted outcome — returning, erroring, or panicking mid-build.
func (h *cacheHarness) build(_ context.Context, k server.Key) (*server.Artifact, error) {
	ki := keyIndex(k)
	ch := make(chan buildRelease)
	h.mu.Lock()
	h.release[ki] = ch
	h.mu.Unlock()
	h.started <- ki
	r := <-ch
	switch r.outcome {
	case outcomePanic:
		panic("check: scripted build panic")
	case outcomeErr:
		return nil, errors.New("check: scripted build failure")
	}
	return specArtifact(k, r.seq), nil
}

type cacheOpResult struct {
	art *server.Artifact
	hit bool
	err error
}

// classifyCacheErr buckets a Get error the way the spec predicts it.
func classifyCacheErr(err error) errClass {
	switch {
	case err == nil:
		return errNone
	case errors.Is(err, context.Canceled):
		return errCanceled
	case strings.Contains(err.Error(), "panicked"):
		return errPanic
	default:
		return errBuild
	}
}

// runCacheSchedule replays one annotated schedule against a fresh real
// cache, enforcing each step's expected consequence under the watchdog,
// then diffs every per-op result and the final cache state against the
// spec. Every wait is bounded: a hang here is the lost-wakeup invariant
// failing, reported as which step timed out rather than a stuck test.
func runCacheSchedule(sc *cacheScenario, sched schedule[cacheStep, *cacheSpec]) error {
	n := len(sc.Ops)
	h := &cacheHarness{
		release: make(map[int]chan buildRelease),
		started: make(chan int, n),
		waited:  make(chan int, n),
	}
	c := server.NewCache(sc.Budget, h.build)
	c.WaitHook = func(k server.Key) { h.waited <- keyIndex(k) }

	results := make([]cacheOpResult, n)
	done := make([]chan struct{}, n)
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := 0; i < n; i++ {
		done[i] = make(chan struct{})
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()

	launch := func(i int) {
		go func() {
			defer close(done[i])
			defer func() {
				if r := recover(); r != nil {
					results[i].err = fmt.Errorf("panic escaped Get: %v", r)
				}
			}()
			art, hit, err := c.Get(ctxs[i], cacheKey(sc.Ops[i].Key))
			results[i] = cacheOpResult{art: art, hit: hit, err: err}
		}()
	}

	for si, st := range sched.steps {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("cache scenario [%s], schedule [%s], step %d %s: %s",
				sc, sched, si, st, fmt.Sprintf(format, args...))
		}
		awaitDone := func(j int, why string) error {
			select {
			case <-done[j]:
				return nil
			case <-time.After(watchdog):
				return fail("op %d never unblocked (%s) — lost wakeup", j, why)
			}
		}
		switch st.kind {
		case stepStart:
			launch(st.op)
			switch st.role {
			case roleHit:
				if err := awaitDone(st.op, "spec says resident hit"); err != nil {
					return err
				}
			case roleBuild:
				select {
				case ki := <-h.started:
					if ki != sc.Ops[st.op].Key {
						return fail("a build started for key %d, spec says key %d", ki, sc.Ops[st.op].Key)
					}
				case <-done[st.op]:
					return fail("Get returned (%+v) but spec says it runs the build", results[st.op])
				case <-time.After(watchdog):
					return fail("no build started — duplicate-build suppression fired where spec says build")
				}
			case roleWait:
				select {
				case ki := <-h.waited:
					if ki != sc.Ops[st.op].Key {
						return fail("a waiter parked on key %d, spec says key %d", ki, sc.Ops[st.op].Key)
					}
				case ki := <-h.started:
					return fail("a second build started for key %d — singleflight violated", ki)
				case <-done[st.op]:
					return fail("Get returned (%+v) but spec says it waits", results[st.op])
				case <-time.After(watchdog):
					return fail("op neither parked nor returned")
				}
			}
		case stepCancel:
			cancels[st.op]()
			if err := awaitDone(st.op, "context canceled while waiting"); err != nil {
				return err
			}
		case stepFinish:
			ki := sc.Ops[st.op].Key
			h.mu.Lock()
			ch := h.release[ki]
			delete(h.release, ki)
			h.mu.Unlock()
			if ch == nil {
				return fail("no parked build for key %d to finish", ki)
			}
			ch <- buildRelease{outcome: sc.Ops[st.op].Outcome, seq: st.seq}
			for _, j := range st.completes {
				if err := awaitDone(j, "its build finished"); err != nil {
					return err
				}
			}
		}
	}

	// No unexpected leftover activity: every scripted build consumed.
	select {
	case ki := <-h.started:
		return fmt.Errorf("cache scenario [%s], schedule [%s]: stray build for key %d after the schedule — build count > 1 per key", sc, sched, ki)
	default:
	}

	// Per-op results against the spec's predictions.
	final := sched.final
	bySeq := make(map[int]*server.Artifact)
	for i := range results {
		want := final.out[i]
		got := results[i]
		mismatch := func(what string, g, w any) error {
			return fmt.Errorf("cache scenario [%s], schedule [%s]: op %d %s = %v, spec says %v",
				sc, sched, i, what, g, w)
		}
		if gc := classifyCacheErr(got.err); gc != want.err {
			return mismatch("error", fmt.Sprintf("%v (%s)", got.err, gc), want.err)
		}
		if got.hit != want.hit {
			return mismatch("hit", got.hit, want.hit)
		}
		gotSeq := -1
		if got.art != nil {
			gotSeq = int(got.art.Data[0])
		}
		if gotSeq != want.seq {
			return mismatch("artifact", gotSeq, want.seq)
		}
		if got.art != nil {
			if prev, ok := bySeq[gotSeq]; ok && prev != got.art {
				return mismatch("artifact pointer", "distinct copies of one build", "one shared artifact")
			}
			bySeq[gotSeq] = got.art
			if err := verifySpecArtifact(got.art, gotSeq); err != nil {
				return mismatch("artifact bytes", err, "unmutated after publish")
			}
		}
	}

	// Final cache state: counters, byte accounting, the resident set.
	st := c.Stats()
	finalDiff := func(what string, g, w any) error {
		return fmt.Errorf("cache scenario [%s], schedule [%s]: final %s = %v, spec says %v",
			sc, sched, what, g, w)
	}
	if st.Hits != final.hits {
		return finalDiff("hits", st.Hits, final.hits)
	}
	if st.Misses != final.misses {
		return finalDiff("misses", st.Misses, final.misses)
	}
	if st.Builds != final.builds {
		return finalDiff("builds", st.Builds, final.builds)
	}
	if st.BuildErrors != final.buildErrors {
		return finalDiff("build_errors", st.BuildErrors, final.buildErrors)
	}
	if st.Evictions != final.evictions {
		return finalDiff("evictions", st.Evictions, final.evictions)
	}
	if st.Bytes != final.bytes() {
		return finalDiff("bytes", st.Bytes, final.bytes())
	}
	if st.Entries != len(final.resident) {
		return finalDiff("entries", st.Entries, len(final.resident))
	}
	residentKeys := make(map[int]int)
	for _, ent := range final.resident {
		residentKeys[ent.key] = ent.seq
		art := c.Peek(cacheKey(ent.key))
		if art == nil {
			return finalDiff(fmt.Sprintf("residency of key %d", ent.key), "absent", fmt.Sprintf("build %d resident", ent.seq))
		}
		if got := int(art.Data[0]); got != ent.seq {
			return finalDiff(fmt.Sprintf("resident build for key %d", ent.key), got, ent.seq)
		}
		if err := verifySpecArtifact(art, ent.seq); err != nil {
			return finalDiff(fmt.Sprintf("resident artifact for key %d", ent.key), err, "unmutated after publish")
		}
	}
	for ki := 0; ki < len(sc.Ops); ki++ {
		if _, ok := residentKeys[ki]; !ok && c.Peek(cacheKey(ki)) != nil {
			return finalDiff(fmt.Sprintf("residency of key %d", ki), "resident", "absent (evicted or never built)")
		}
	}
	return nil
}

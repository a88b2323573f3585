// Package check is the executable specification and interleaving
// checker for the repo's hand-rolled shared-state fast paths: the
// artifact cache's singleflight build/LRU machinery (internal/server)
// and the stream loader's feed/demand/quarantine/repair machinery
// (internal/stream).
//
// The discipline is the memalloy one: write the state machine twice.
// The spec side is a few hundred lines of pure, single-threaded Go that
// says what each operation *means*; the implementation side is the real
// concurrent code. A small-interleaving enumerator walks every schedule
// of 2–4 concurrent operations, drives the real implementation through
// that exact schedule with determinism hooks (a scripted build function,
// the cache's WaitHook, a step-controlled stream reader), and diffs
// every observable — per-call results, emitted events, counters, the
// resident set — against the spec. Any divergence is a bug in one of
// the two, and either way worth knowing.
//
// The invariants pinned here (see DESIGN.md "Pinned invariants"):
//
//   - at most one build per key, no matter how many concurrent callers;
//   - every waiter eventually unblocks — even when the build errors,
//     panics, or the waiter's context dies (watchdog-enforced);
//   - no artifact byte is mutated after publish, and equal builds are
//     the same artifact pointer;
//   - LRU byte accounting exactly matches the resident set;
//   - no pooled payload buffer is reused while an installed unit
//     retains a slice of it (installed bytes stay immutable);
//   - loader events are exactly-once per unit however the main stream,
//     demand fetches, and repair replies interleave, and a healed or
//     demand-covered unit never leaves a stale quarantine entry;
//   - the disk store's Put is atomic at every crash point: a process
//     death before the rename leaves the previous generation (or a
//     clean miss) byte-intact, a death at or after it leaves the new
//     artifact byte-intact, and no crash ever yields a torn read, a
//     quarantined entry, or a surviving temp file (CheckStoreCrashes);
//   - the build circuit breaker follows its documented transition
//     graph with a monotone trip counter and at most one half-open
//     probe, enumerated against a pure spec over every bounded op
//     sequence with a fake clock (CheckBreaker).
//
// Alongside the exhaustive small-schedule walk, RunStress drives the
// same objects with seeded randomized schedules (run under -race, env-
// gated long mode for nightly) asserting the same invariants, and
// prints the failing seed for local reproduction.
package check

import (
	"fmt"
	"sync"
	"time"
)

// watchdog bounds every wait the checker performs on the real
// implementation. A schedule that trips it has lost a wakeup — the
// "every waiter eventually unblocks" invariant rendered as a timeout.
const watchdog = 10 * time.Second

// scenarioWorkers is how many scenarios the enumerators walk at once.
const scenarioWorkers = 8

// forEachScenario runs walk over the scenarios on a pool of workers and
// returns the schedule counts walk reported, summed, and the first
// error any call returned. An error stops the walk: no worker takes
// another scenario, and each leaves after the one it is on.
func forEachScenario[S any](scenarios []S, walk func(S) (schedules int, err error)) (int, error) {
	var (
		mu       sync.Mutex // guards everything below
		next     int        // index of the first scenario not yet taken
		total    int
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < scenarioWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next == len(scenarios) {
					mu.Unlock()
					return
				}
				sc := scenarios[next]
				next++
				mu.Unlock()

				n, err := walk(sc)
				mu.Lock()
				total += n
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return total, firstErr
}

// errClass buckets an operation's error for spec comparison: the spec
// predicts the class of error, not its exact text.
type errClass int

const (
	errNone errClass = iota
	errCanceled
	errBuild
	errPanic
	errDemand // loader: demand fed out of protocol (body before global)
)

func (e errClass) String() string {
	switch e {
	case errNone:
		return "nil"
	case errCanceled:
		return "canceled"
	case errBuild:
		return "build-error"
	case errPanic:
		return "build-panic"
	case errDemand:
		return "demand-error"
	}
	return fmt.Sprintf("errclass-%d", int(e))
}

// Package check is the executable specification and interleaving
// checker for the repo's hand-rolled shared-state fast paths: the
// artifact cache's singleflight build/LRU machinery (internal/server)
// and the stream loader's feed/demand/repair machinery
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
//     demand fetches, and repair replies interleave, and a unit whose
//     repair fails ends Load with ErrStreamIntegrity, leaving installed
//     what came before it or by demand;
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
// Alongside the exhaustive small-schedule walk, cacheStress and
// loaderStress drive the same objects with seeded randomized schedules
// (run under -race, env-gated long mode for nightly) asserting the same
// invariants, and print the failing seed for local reproduction.
package check

import (
	"fmt"
	"strings"
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

// spec is what the enumerator needs of an executable model S with step
// alphabet St: whether every op has finished, the steps the scheduler
// may take next, an independent copy, and one transition, which also
// fills in the step's annotations for the harness to enforce.
type spec[S any, St any] interface {
	done() bool
	enabled() []St
	clone() S
	apply(*St)
}

// schedule is one fully annotated total order over a scenario's
// decision points, plus the spec's final state for it.
type schedule[St fmt.Stringer, S any] struct {
	steps []St
	final S
}

func (s schedule[St, S]) String() string {
	parts := make([]string, len(s.steps))
	for i, st := range s.steps {
		parts[i] = st.String()
	}
	return strings.Join(parts, " → ")
}

// enumerate walks every schedule of scenario sc by DFS over the enabled
// steps of its spec, from root, calling emit with each complete
// annotated schedule. limit > 0 bounds the schedule count (an explosion
// guard, not a sampling knob — exceeding it is an error so coverage is
// never silently truncated).
func enumerate[S spec[S, St], St fmt.Stringer](sc fmt.Stringer, root S, limit int, emit func(schedule[St, S]) error) (int, error) {
	count := 0
	var rec func(s S, prefix []St) error
	rec = func(s S, prefix []St) error {
		if s.done() {
			count++
			if limit > 0 && count > limit {
				return fmt.Errorf("check: scenario %s exceeds %d schedules", sc, limit)
			}
			return emit(schedule[St, S]{steps: append([]St(nil), prefix...), final: s})
		}
		for _, st := range s.enabled() {
			next := s.clone()
			next.apply(&st)
			if err := rec(next, append(prefix, st)); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(root, nil)
	return count, err
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

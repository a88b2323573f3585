package check

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEachScenarioStopsOnError drives the enumerators' shared pool
// with a walk that fails on one scenario: the pool must come back with
// that error, having walked the failing scenario and everything taken
// before it but not the whole list — and, under -race, with every read
// of what the workers write under their lock.
func TestForEachScenarioStopsOnError(t *testing.T) {
	const total, failAt = 500, 40
	boom := errors.New("scenario 40 diverged")
	scenarios := make([]int, total)
	for i := range scenarios {
		scenarios[i] = i
	}
	var walked atomic.Int64
	n, err := forEachScenario(scenarios, func(sc int) (int, error) {
		walked.Add(1)
		if sc == failAt {
			return 1, boom
		}
		return 1, nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the failing scenario's error", err)
	}
	if int64(n) != walked.Load() || n <= failAt || n >= total {
		t.Fatalf("counted %d schedules over %d walks, want both in (%d, %d)", n, walked.Load(), failAt, total)
	}

	n, err = forEachScenario(scenarios, func(int) (int, error) { return 2, nil })
	if err != nil || n != 2*total {
		t.Fatalf("clean walk = %d schedules, %v; want %d, nil", n, err, 2*total)
	}
}

// TestCacheInterleavings is the exhaustive cache gate: every schedule
// of 3 concurrent Gets over 2 keys — each op in turn the faulty build
// (error and panic), each in turn cancelable, under both a no-evict and
// an evict-to-one budget — replayed against the real cache with zero
// spec divergence.
func TestCacheInterleavings(t *testing.T) {
	ops := 3
	if testing.Short() {
		ops = 2
	}
	rep, err := checkCache(cacheOptions{Ops: ops, Keys: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cache: %d scenarios, %d schedules, zero divergence", rep.Scenarios, rep.Schedules)
	if rep.Schedules < rep.Scenarios {
		t.Fatalf("suspiciously few schedules (%d) for %d scenarios", rep.Schedules, rep.Scenarios)
	}
}

// TestStoreCrashInterleavings is the store durability gate: a simulated
// process death at every step of DiskStore.Put's write protocol, over
// both a fresh key and an overwrite, must leave the reopened directory
// exactly at the old or new generation — never torn, never quarantined,
// never with a live temp file — and a retry must recover.
func TestStoreCrashInterleavings(t *testing.T) {
	rep, err := checkStoreCrashes(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("store: %d crash points over %d scenarios, zero divergence", rep.Crashes, rep.Scenarios)
	if rep.Crashes < 2*len(putSteps) {
		t.Fatalf("only %d crash points; the gate requires every Put step in both scenarios", rep.Crashes)
	}
}

// TestBreakerInterleavings is the circuit-breaker gate: every bounded
// sequence of allow/fail/success/cancel/clock ops replayed against the
// real breaker (fake clock) and a pure spec, asserting matched shed
// decisions, the documented transition graph, and a monotone trip
// counter.
func TestBreakerInterleavings(t *testing.T) {
	depth := 7
	if testing.Short() {
		depth = 5
	}
	rep, err := checkBreaker(breakerOptions{Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("breaker: %d sequences, %d steps, zero divergence", rep.Sequences, rep.Steps)
	if rep.Steps < rep.Sequences {
		t.Fatalf("suspiciously few steps (%d) for %d sequences", rep.Steps, rep.Sequences)
	}
}

// TestLoaderInterleavings is the exhaustive loader gate: every schedule
// of a stepped main stream, a scripted repair, and ≥3 concurrent demand
// fetches — each stepped unit in turn the corrupt one, repair both
// succeeding and failing — replayed against the real loader with zero
// spec divergence.
func TestLoaderInterleavings(t *testing.T) {
	stepped := 4
	if testing.Short() {
		stepped = 3
	}
	rep, err := checkLoader(loaderOptions{Stepped: stepped})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("loader: %d scenarios, %d schedules over a %d-unit stream with %d concurrent demands, zero divergence",
		rep.Scenarios, rep.Schedules, rep.Units, rep.Demands)
	if rep.Demands < 3 {
		t.Fatalf("only %d concurrent demand ops; the gate requires ≥ 3", rep.Demands)
	}
	if rep.Schedules < rep.Scenarios {
		t.Fatalf("suspiciously few schedules (%d) for %d scenarios", rep.Schedules, rep.Scenarios)
	}
}

package check

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// TestStressShort is the always-on randomized complement to the
// exhaustive enumerators: a few fixed seeds through both stress rounds,
// fast enough for every CI run, under -race in the check-smoke job.
func TestStressShort(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		if err := cacheStress(seed); err != nil {
			t.Fatalf("cache stress failed — reproduce with CHECK_STRESS_SEED=%d: %v", seed, err)
		}
		if err := loaderStress(seed); err != nil {
			t.Fatalf("loader stress failed — reproduce with CHECK_STRESS_SEED=%d: %v", seed, err)
		}
	}
}

// TestStressSoak is the nightly long stress: time-seeded randomized
// rounds until CHECK_STRESS_ROUNDS (default 500) is exhausted. Gated
// behind CHECK_STRESS=1; any failure prints the seed so the exact round
// reproduces locally with CHECK_STRESS_SEED.
func TestStressSoak(t *testing.T) {
	if os.Getenv("CHECK_STRESS") != "1" {
		t.Skip("set CHECK_STRESS=1 to run the long randomized stress soak")
	}
	rounds := 500
	if v := os.Getenv("CHECK_STRESS_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad CHECK_STRESS_ROUNDS %q: %v", v, err)
		}
		rounds = n
	}
	base := uint64(time.Now().UnixNano())
	if v := os.Getenv("CHECK_STRESS_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHECK_STRESS_SEED %q: %v", v, err)
		}
		base = n
		rounds = 1
	}
	t.Logf("stress soak: %d rounds from base seed %d", rounds, base)
	for r := 0; r < rounds; r++ {
		seed := base + uint64(r)
		if err := cacheStress(seed); err != nil {
			t.Fatalf("cache stress failed at seed %d — reproduce with CHECK_STRESS=1 CHECK_STRESS_SEED=%d: %v", seed, seed, err)
		}
		if err := loaderStress(seed); err != nil {
			t.Fatalf("loader stress failed at seed %d — reproduce with CHECK_STRESS=1 CHECK_STRESS_SEED=%d: %v", seed, seed, err)
		}
	}
}

package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"nonstrict/internal/check"
)

// cmdCheck runs the concurrency-soundness checker from internal/check
// locally: the exhaustive interleaving enumerators for the artifact
// cache and the stream loader, then optional seeded randomized stress
// rounds. Exit status is non-zero on any spec/implementation
// divergence, with the scenario, schedule, and step (or the failing
// seed) in the error.
func cmdCheck(_ context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	ops := fs.Int("ops", 3, "concurrent cache operations per scenario (2-4)")
	keys := fs.Int("keys", 2, "distinct cache keys")
	stepped := fs.Int("stepped", 4, "individually scheduled loader stream units")
	full := fs.Bool("full", false, "cross the full cache outcome/cancel space (slow)")
	stress := fs.Int("stress", 0, "seeded randomized stress rounds after the enumerators")
	seed := fs.Uint64("seed", uint64(time.Now().UnixNano()), "base seed for -stress rounds")
	if err := fs.Parse(args); err != nil {
		return err
	}

	start := time.Now()
	crep, err := check.CheckCache(check.CacheOptions{Ops: *ops, Keys: *keys, Full: *full})
	if err != nil {
		return fmt.Errorf("check: cache divergence: %w", err)
	}
	fmt.Fprintf(out, "cache:  %d scenarios, %d schedules, zero divergence (%.2fs)\n",
		crep.Scenarios, crep.Schedules, time.Since(start).Seconds())

	start = time.Now()
	lrep, err := check.CheckLoader(check.LoaderOptions{Stepped: *stepped})
	if err != nil {
		return fmt.Errorf("check: loader divergence: %w", err)
	}
	fmt.Fprintf(out, "loader: %d scenarios, %d schedules over a %d-unit stream with %d concurrent demands, zero divergence (%.2fs)\n",
		lrep.Scenarios, lrep.Schedules, lrep.Units, lrep.Demands, time.Since(start).Seconds())

	if *stress > 0 {
		start = time.Now()
		for r := 0; r < *stress; r++ {
			s := *seed + uint64(r)
			if err := check.CacheStress(s); err != nil {
				return fmt.Errorf("check: cache stress failed at seed %d (reproduce with -stress 1 -seed %d): %w", s, s, err)
			}
			if err := check.LoaderStress(s); err != nil {
				return fmt.Errorf("check: loader stress failed at seed %d (reproduce with -stress 1 -seed %d): %w", s, s, err)
			}
		}
		fmt.Fprintf(out, "stress: %d rounds from seed %d, all invariants held (%.2fs)\n",
			*stress, *seed, time.Since(start).Seconds())
	}
	return nil
}

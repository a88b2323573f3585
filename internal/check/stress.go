package check

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// cacheStress runs one seeded randomized stress round against a real
// server.Cache: many goroutines hammering a few keys through scripted
// builds that sleep, error, and panic at seed-derived points, some
// callers abandoning their wait under tight deadlines. It asserts the
// same invariants the enumerator pins, on schedules far longer than the
// enumerator can afford: at most one build in flight per key, every
// returned artifact pointer-identical to a recorded build, no artifact
// byte mutated after publish, every Get eventually unblocking, and the
// final counters and byte accounting exactly reconciling with the
// resident set. Deterministic given seed (modulo goroutine timing —
// which is the point); run it under -race.
func cacheStress(seed uint64) error {
	const (
		keys       = 4
		goroutines = 8
		getsPerG   = 60
	)
	budget := int64(noEvictBudget)
	if seed%2 == 0 {
		budget = 2*artBytes + 10 // force constant eviction pressure
	}

	var (
		mu       sync.Mutex
		firstErr error
		recorded = make(map[*server.Artifact]int) // published artifact → seq
		buildN   int64
		buildErr int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	var seq atomic.Int64
	perKey := make([]atomic.Int32, keys)
	build := func(_ context.Context, k server.Key) (*server.Artifact, error) {
		ki := keyIndex(k)
		if n := perKey[ki].Add(1); n != 1 {
			fail(fmt.Errorf("%d builds in flight for key %d — singleflight violated", n, ki))
		}
		defer perKey[ki].Add(-1)
		s := int(seq.Add(1))
		time.Sleep(time.Duration((uint64(s)*seed)%5) * 10 * time.Microsecond)
		mu.Lock()
		buildN++
		mu.Unlock()
		switch (seed + uint64(s)*2654435761) % 11 {
		case 3:
			mu.Lock()
			buildErr++
			mu.Unlock()
			return nil, errors.New("check: scripted build failure")
		case 7:
			mu.Lock()
			buildErr++
			mu.Unlock()
			panic("check: scripted build panic")
		}
		art := specArtifact(k, s)
		mu.Lock()
		recorded[art] = s
		mu.Unlock()
		return art, nil
	}
	c := server.NewCache(budget, build)

	var gets atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed) + int64(g)*7919))
			for i := 0; i < getsPerG; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Intn(5) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				k := cacheKey(rng.Intn(keys))
				art, _, err := c.Get(ctx, k)
				cancel()
				gets.Add(1)
				switch {
				case err == nil:
					mu.Lock()
					s, ok := recorded[art]
					mu.Unlock()
					if !ok {
						fail(fmt.Errorf("Get returned an artifact no build published (%p)", art))
					} else if verr := verifySpecArtifact(art, s); verr != nil {
						fail(fmt.Errorf("build %d: %v", s, verr))
					}
				case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				case strings.Contains(err.Error(), "scripted build failure"),
					strings.Contains(err.Error(), "panicked"):
				default:
					fail(fmt.Errorf("Get returned an error of no known class: %v", err))
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(watchdog):
		return fmt.Errorf("stress round hung — some Get never unblocked (lost wakeup)")
	}
	if firstErr != nil {
		return firstErr
	}

	// Builds run synchronously inside Get, so with every Get returned
	// nothing is in flight: the counters must reconcile exactly.
	st := c.Stats()
	if st.Hits+st.Misses != gets.Load() {
		return fmt.Errorf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, gets.Load())
	}
	if st.Builds != buildN {
		return fmt.Errorf("stats report %d builds; %d ran", st.Builds, buildN)
	}
	if st.BuildErrors != buildErr {
		return fmt.Errorf("stats report %d build errors; %d scripted", st.BuildErrors, buildErr)
	}
	var resBytes int64
	resEntries := 0
	for ki := 0; ki < keys; ki++ {
		art := c.Peek(cacheKey(ki))
		if art == nil {
			continue
		}
		resEntries++
		resBytes += int64(len(art.Data) + len(art.TOC))
		mu.Lock()
		s, ok := recorded[art]
		mu.Unlock()
		if !ok {
			return fmt.Errorf("resident artifact for key %d was never published by a build", ki)
		}
		if err := verifySpecArtifact(art, s); err != nil {
			return fmt.Errorf("resident artifact for key %d: %v", ki, err)
		}
	}
	if st.Bytes != resBytes || st.Entries != resEntries {
		return fmt.Errorf("accounting: stats say %d bytes / %d entries, resident set holds %d bytes / %d entries",
			st.Bytes, st.Entries, resBytes, resEntries)
	}
	if st.Bytes > budget && resEntries > 1 {
		return fmt.Errorf("resident set (%d bytes, %d entries) exceeds the %d-byte budget", st.Bytes, resEntries, budget)
	}
	for art, s := range recorded {
		if err := verifySpecArtifact(art, s); err != nil {
			return fmt.Errorf("published artifact %d mutated: %v", s, err)
		}
	}
	return nil
}

// loaderStress runs one seeded randomized stress round against a real
// stream.Loader: the fixture stream arrives in random-sized fragments
// with a seed-chosen subset of units corrupted (repair succeeding or
// failing per unit), while demand goroutines concurrently re-deliver
// random units. It asserts loader events fire exactly once per unit
// however the deliveries race, Load ends at the first unit whose repair
// fails (or at EOF) with integrity counters where the seed's corruption
// plan says, and — after a final demand sweep delivers what the stream
// did not — the program assembles, runs, and passes the app's own
// output check (any post-install byte mutation would fail it).
func loaderStress(seed uint64) error {
	fx, err := fixture()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(seed)))

	// The corruption plan, fixed up front so the (concurrent) repair
	// hook never touches the rng.
	corrupted := make(map[int]bool)
	repairOK := make(map[int]bool)
	data := append([]byte(nil), fx.data...)
	for i := range fx.toc {
		if rng.Intn(3) == 0 {
			corrupted[i] = true
			repairOK[i] = rng.Intn(2) == 0
			data[fx.toc[i].Off] ^= 0x5a
		}
	}
	// stop is the unit whose failed repair ends Load: the first
	// corrupted one the plan does not repair, or len(toc) for EOF.
	stop := len(fx.toc)
	for i := range fx.toc {
		if corrupted[i] && !repairOK[i] {
			stop = i
			break
		}
	}
	byRequest := make(map[stream.RepairRequest]int, len(fx.toc))
	for i, u := range fx.toc {
		byRequest[stream.RepairRequest{Class: u.Class, Kind: u.Kind, Body: unitBody(u), Len: u.Len, CRC: u.CRC}] = i
	}

	l := stream.NewLoader(fx.rp.Name, fx.rp.MainClass, nil)
	var asked atomic.Int64
	l.Repair = func(req stream.RepairRequest) ([]byte, error) {
		asked.Add(1)
		i, ok := byRequest[req]
		if !ok {
			return nil, fmt.Errorf("repair request for a unit not in the TOC: %+v", req)
		}
		if !repairOK[i] {
			return []byte("garbage"), nil
		}
		return fx.cleanPayload(i), nil
	}

	// Event accounting across the main stream and every demand
	// goroutine: each install event must fire exactly once.
	var evMu sync.Mutex
	linked := make(map[string]int)
	ready := make(map[string]int)
	complete := make(map[string]int)
	count := func(evs []stream.Event) {
		evMu.Lock()
		defer evMu.Unlock()
		for _, e := range evs {
			switch e.Kind {
			case stream.ClassLinked:
				linked[e.Class]++
			case stream.MethodReady:
				ready[e.Method.Class+"."+e.Method.Name]++
			case stream.ClassComplete:
				complete[e.Class]++
			}
		}
	}

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	loadDone := make(chan error, 1)
	go func() {
		loadDone <- l.Load(&fragmentReader{data: data, rng: rand.New(rand.NewSource(int64(seed) + 1))},
			func(e stream.Event) { count([]stream.Event{e}) })
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			drng := rand.New(rand.NewSource(int64(seed) + 100 + int64(g)))
			order := drng.Perm(len(fx.toc))
			for _, i := range order[:1+drng.Intn(len(order))] {
				u := fx.toc[i]
				ev, err := l.FeedDemand(u.Class, u.Kind, u.Body, fx.cleanPayload(i), u.CRC)
				if err != nil && !strings.Contains(err.Error(), "before its global") {
					fail(fmt.Errorf("demand for unit %d: %v", i, err))
				}
				count(ev)
				if drng.Intn(3) == 0 {
					time.Sleep(time.Duration(drng.Intn(50)) * time.Microsecond)
				}
			}
		}(g)
	}

	select {
	case err := <-loadDone:
		if stop == len(fx.toc) && err != nil {
			return fmt.Errorf("Load returned %v; every corrupt unit was repaired", err)
		}
		if stop < len(fx.toc) && !errors.Is(err, stream.ErrStreamIntegrity) {
			return fmt.Errorf("Load returned %v; unit %d's repair failed, so it must end with ErrStreamIntegrity", err, stop)
		}
	case <-time.After(watchdog):
		return fmt.Errorf("Load hung — lost wakeup in the stream path")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(watchdog):
		return fmt.Errorf("a demand goroutine hung — lost wakeup in the demand path")
	}
	if firstErr != nil {
		return firstErr
	}

	if got := l.UnitsConsumed(); got != stop {
		return fmt.Errorf("main stream consumed %d units, plan says %d", got, stop)
	}
	wantBytes := int64(len(data))
	if stop < len(fx.toc) {
		wantBytes = fx.toc[stop].Off - fx.unitHdr
	}
	if got := l.Consumed(); got != wantBytes {
		return fmt.Errorf("consumed %d stream bytes, plan says %d", got, wantBytes)
	}
	integ := l.Integrity()
	wantCorrupt, wantRepaired := int64(0), int64(0)
	for i := range corrupted {
		if i <= stop {
			wantCorrupt++
		}
		if i < stop {
			wantRepaired++
		}
	}
	if integ.CorruptUnits != wantCorrupt {
		return fmt.Errorf("integrity counted %d corrupt units; the plan reaches %d", integ.CorruptUnits, wantCorrupt)
	}
	if asked.Load() != integ.CorruptUnits || integ.Repaired != wantRepaired {
		return fmt.Errorf("repair hook asked %d times / %d repaired, plan says once per corrupt unit (%d) / %d",
			asked.Load(), integ.Repaired, integ.CorruptUnits, wantRepaired)
	}
	if wantDigest := stop == len(fx.toc); integ.DigestVerified != wantDigest {
		return fmt.Errorf("digest verified = %v, plan says %v (Load ends at unit %d)",
			integ.DigestVerified, wantDigest, stop)
	}

	// Final demand sweep: redeliver everything (globals precede their
	// bodies in TOC order), as a degraded session demand-fetches what
	// the stream did not deliver.
	for i, u := range fx.toc {
		ev, err := l.FeedDemand(u.Class, u.Kind, u.Body, fx.cleanPayload(i), u.CRC)
		if err != nil {
			return fmt.Errorf("sweep demand for unit %d: %v", i, err)
		}
		count(ev)
	}

	for ci, name := range fx.className {
		if linked[name] != 1 || complete[name] != 1 {
			return fmt.Errorf("class %s: %d ClassLinked / %d ClassComplete events, want exactly 1 each", name, linked[name], complete[name])
		}
		_ = ci
	}
	readyTotal := 0
	for ref, n := range ready {
		if n != 1 {
			return fmt.Errorf("method %s: %d MethodReady events, want exactly 1", ref, n)
		}
		readyTotal++
	}
	if wantBodies := len(fx.toc) - len(fx.className); readyTotal != wantBodies {
		return fmt.Errorf("%d methods became ready, stream carries %d bodies", readyTotal, wantBodies)
	}

	// End to end: the assembled program must run and produce the app's
	// expected output — any installed byte that was mutated, swapped, or
	// double-installed along the way fails this.
	p, err := l.Program()
	if err != nil {
		return fmt.Errorf("program did not assemble after the sweep: %v", err)
	}
	ln, err := vm.Link(p)
	if err != nil {
		return err
	}
	m, err := ln.Run(vm.Options{Args: fx.app.TestArgs, MaxSteps: 5e8})
	if err != nil {
		return err
	}
	return fx.app.Check(m, false)
}

// fragmentReader feeds a byte stream in random-sized fragments, so unit
// boundaries never align with read boundaries.
type fragmentReader struct {
	data []byte
	pos  int
	rng  *rand.Rand
}

func (r *fragmentReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := 1 + r.rng.Intn(97)
	if n > len(p) {
		n = len(p)
	}
	if rem := len(r.data) - r.pos; n > rem {
		n = rem
	}
	copy(p, r.data[r.pos:r.pos+n])
	r.pos += n
	return n, nil
}

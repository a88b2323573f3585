package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// parseTOC decodes a planned stream's unit table for test arithmetic.
func parseTOC(t *testing.T, p planned) []stream.UnitInfo {
	t.Helper()
	toc, err := stream.ParseTOC(p.toc)
	if err != nil {
		t.Fatal(err)
	}
	return toc
}

// corruptTarget picks a CorruptEvery period that deterministically flips
// exactly one payload byte of the main stream, in a unit the program
// cannot finish without: the period points at the middle of a unit in
// the stream's second half (so the second hit falls past EOF), and every
// unit is shorter than the period (so repair and demand range replies —
// whose corruption positions are relative to their own bodies — always
// come back clean). The unit is one the need trace runs, and the needs up
// to and including it are the stream's first body units in order, so the
// gate never finds it out of predicted order and never demands it: only
// the main stream delivers it, and execution cannot get past it — nor the
// session reach the cut at Close — before the corruption is detected and
// repaired, however the stream and the executor are timed.
func corruptTarget(t *testing.T, p planned, needs []classfile.Ref) int64 {
	t.Helper()
	toc := parseTOC(t, p)
	maxLen := 0
	for _, u := range toc {
		maxLen = max(maxLen, u.Len)
	}
	half := int64(len(p.data)) / 2
	next := 0 // the stream's body units so far are needs[:next], in order
	for _, u := range toc {
		if u.Kind != stream.KindBody {
			continue
		}
		if next == len(needs) || u.Method != needs[next] {
			break
		}
		next++
		period := u.Off + int64(u.Len)/2 + 1
		if u.Off >= half && period > int64(maxLen) && u.Len >= 2 {
			return period
		}
	}
	t.Fatal("no unit in the stream's second half that the need trace reaches in stream order")
	return 0
}

// chaosRun executes one overlapped run under a fault schedule and
// asserts the headline chaos property: the program either produces
// output identical to the fault-free run, or fails with a diagnosable
// error — never a hang (bounded by the gate deadline) and never a wrong
// result.
func chaosRun(t *testing.T, p planned, want int64, f stream.Fault, client *stream.FetchClient) (*Stats, error) {
	t.Helper()
	srv := serve(t, p, f)
	done := make(chan struct{})
	var (
		m   *vm.Machine
		st  *Stats
		err error
	)
	go func() {
		defer close(done)
		m, st, err = Run(context.Background(), Options{
			URL:         srv.URL + "/app",
			TOCURL:      srv.URL + "/app.toc",
			Name:        p.app.Name,
			MainClass:   p.rp.MainClass,
			Client:      client,
			GateTimeout: 10 * time.Second,
			Run:         vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos run hung past every deadline")
	}
	if err != nil {
		return st, err
	}
	checkRun(t, p, m, want)
	return st, nil
}

// TestChaosSchedules composes seeded fault schedules — corruption,
// drops, stalls (bounded and unbounded), flaky unit tables, garbage
// Range replies — and requires every run to end with correct output or
// a clean error. Each schedule is deterministic under its seed, so a
// failure here reproduces.
func TestChaosSchedules(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	period := corruptTarget(t, p, needTrace(t, p))

	// watchdogClient recovers from unbounded stalls: the idle watchdog
	// cancels a silent connection and resumes by Range.
	watchdogClient := func() *stream.FetchClient {
		c := fastClient()
		c.RequestTimeout = 150 * time.Millisecond
		return c
	}

	schedules := []struct {
		name   string
		fault  stream.Fault
		client *stream.FetchClient
	}{
		{"drops", stream.Fault{DropEvery: 700, Seed: 11}, fastClient()},
		{"corruption", stream.Fault{CorruptEvery: period, Seed: 12}, fastClient()},
		{"corruption-drops", stream.Fault{CorruptEvery: period, DropEvery: 2500, Seed: 13}, fastClient()},
		{"bounded-stalls", stream.Fault{StallAfter: 900, StallFor: 30 * time.Millisecond, DropEvery: 2200, Seed: 14}, fastClient()},
		{"stall-forever", stream.Fault{StallAfter: 1500, Seed: 15}, watchdogClient()},
		{"flaky-toc-garbage-range", stream.Fault{FlakyTOC: 2, GarbageRangeEvery: 3, DropEvery: 1200, Seed: 16}, fastClient()},
		{"everything", stream.Fault{
			CorruptEvery: period, DropEvery: 2500,
			StallAfter: 1700, StallFor: 25 * time.Millisecond,
			FlakyTOC: 1, GarbageRangeEvery: 4, Seed: 17,
		}, fastClient()},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			st, err := chaosRun(t, p, want, sc.fault, sc.client)
			if err != nil {
				// A clean, diagnosable failure is acceptable under chaos;
				// silence or garbage output is not.
				t.Logf("run failed cleanly: %v", err)
				if st == nil {
					t.Error("failed run returned no stats")
				}
				return
			}
			if sc.fault.DropEvery > 0 && st.Transfer.Resumes == 0 && st.Degraded == "" {
				t.Error("drop fault never engaged")
			}
		})
	}
}

// TestChaosCorruptionCounters pins the accounting on the deterministic
// single-corruption schedule, whose corrupt unit the program runs: the
// run must complete with identical output, and the corruption/re-fetch
// counters must show the repair round trip.
func TestChaosCorruptionCounters(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	period := corruptTarget(t, p, needTrace(t, p))
	st, err := chaosRun(t, p, want, stream.Fault{CorruptEvery: period, Seed: 21}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	if st.Integrity.CorruptUnits == 0 {
		t.Error("corruption schedule ran but no corrupt units counted")
	}
	if st.Refetches == 0 {
		t.Error("corrupt unit healed without a counted re-fetch")
	}
	if st.Integrity.Repaired == 0 {
		t.Error("no unit recorded as repaired")
	}
	if st.Integrity.Repaired != st.Integrity.CorruptUnits && st.Degraded == "" {
		t.Errorf("%d corrupt units, %d repaired, and the session did not degrade",
			st.Integrity.CorruptUnits, st.Integrity.Repaired)
	}
}

// TestUnrepairedUnitDegradesToDemand corrupts one main-stream unit the
// program runs and refuses that unit's Range requests until the repair
// has spent its MaxRetries+1 attempts. The failed repair ends the
// stream, and the session degrades: the gate demand-fetches the unit,
// now served, and everything after it. The run must match the
// fault-free run exactly and report the degradation, not an error.
func TestUnrepairedUnitDegradesToDemand(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	period := corruptTarget(t, p, needTrace(t, p))
	var bad stream.UnitInfo
	for _, u := range parseTOC(t, p) {
		if u.Off < period && period <= u.Off+int64(u.Len) {
			bad = u
		}
	}
	client := fastClient()
	client.MaxRetries = 3
	attempts := int64(client.MaxRetries + 1) // the repair's whole budget
	var requests atomic.Int64                // Range requests for the corrupt unit
	faulty := stream.Fault{CorruptEvery: period, Seed: 21}.Wrap(appMux(p))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.Header.Get("Range"), fmt.Sprintf("bytes=%d-", bad.Off)) && requests.Add(1) <= attempts {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		faulty.ServeHTTP(w, r)
	}))
	defer srv.Close()

	m, st, err := Run(context.Background(), Options{
		URL:         srv.URL + "/app",
		TOCURL:      srv.URL + "/app.toc",
		Name:        p.app.Name,
		MainClass:   p.rp.MainClass,
		Client:      client,
		GateTimeout: 10 * time.Second,
		Run:         vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
	})
	if err != nil {
		t.Fatalf("an unrepaired unit should degrade, not fail the run: %v", err)
	}
	checkRun(t, p, m, want)
	if st.Degraded == "" || !strings.Contains(st.Degraded, "integrity") {
		t.Errorf("Degraded = %q, want the stream's integrity failure", st.Degraded)
	}
	if st.Integrity.CorruptUnits != 1 || st.Integrity.Repaired != 0 || st.Integrity.DigestVerified {
		t.Errorf("integrity %+v, want one corrupt unit, not repaired, digest unverified", st.Integrity)
	}
	if n := requests.Load(); n <= attempts {
		t.Errorf("%d Range requests for the corrupt unit; want the repair's %d refused, then a demand fetch served", n, attempts)
	}
}

// trickleServer streams the prefix covering the first two units fast,
// then delivers one byte every few milliseconds without ever failing —
// the pathological transfer that defeats retry logic: every reconnect
// makes progress, so no error is ever terminal, and before the gate
// deadline existed the VM parked forever.
func trickleServer(t *testing.T, p planned) *httptest.Server {
	t.Helper()
	toc := parseTOC(t, p)
	if len(toc) < 3 {
		t.Fatal("need at least 3 units")
	}
	cut := int(toc[2].Off) - stream.UnitHeaderSize // start of the third unit's header
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		// Always a 200 from byte 0; the fetch client discards up to its
		// resume offset, which this server re-trickles anyway.
		fl, _ := w.(http.Flusher)
		if _, err := w.Write(p.data[:cut]); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
		for i := cut; i < len(p.data); i++ {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := w.Write(p.data[i : i+1]); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestGateDeadlineOnTricklingStream is the regression test for the
// forever-parked gate: a stream that trickles without ever failing kept
// AwaitMethod blocked indefinitely (every reconnect delivered a byte,
// resetting the retry budget, so no terminal error ever reached the
// waiters). With the gate deadline the run must return ErrGateTimeout
// promptly — before the fix this test timed out.
func TestGateDeadlineOnTricklingStream(t *testing.T) {
	p := plan(t, "Hanoi")
	srv := trickleServer(t, p)

	type result struct {
		err error
		in  time.Duration
	}
	res := make(chan result, 1)
	go func() {
		began := time.Now()
		_, _, err := Run(context.Background(), Options{
			URL:       srv.URL + "/app",
			Name:      p.app.Name,
			MainClass: p.rp.MainClass,
			Client:    fastClient(),
			// No TOCURL: no demand path, so the deadline is the only
			// thing standing between the waiter and a hang.
			GateTimeout: 400 * time.Millisecond,
			Run:         vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
		})
		res <- result{err, time.Since(began)}
	}()
	select {
	case r := <-res:
		if !errors.Is(r.err, ErrGateTimeout) {
			t.Fatalf("err = %v, want ErrGateTimeout", r.err)
		}
		// The error must identify what execution was blocked on.
		if !strings.Contains(r.err.Error(), "not available after") {
			t.Errorf("gate error %q does not say what was unavailable", r.err)
		}
		if r.in > 10*time.Second {
			t.Errorf("clean error took %v; the deadline was 400ms", r.in)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("kill-the-stream run hung: gate deadline never fired")
	}
}

// TestStreamDeathDegradesToDemandAll kills the main stream permanently
// partway through while bounded Range requests keep working: the run
// must fall back to demand-fetching every remaining unit and still
// produce the exact fault-free output, reporting the degradation.
func TestStreamDeathDegradesToDemandAll(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	toc := parseTOC(t, p)
	cut := int(toc[2].Off) - stream.UnitHeaderSize

	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		rng := r.Header.Get("Range")
		if rng != "" && !strings.HasSuffix(rng, "-") {
			// Bounded range: the demand path. Serve it faithfully.
			http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(p.data))
			return
		}
		if rng != "" {
			// Open-ended range: a main-stream resume. Dead forever.
			panic(http.ErrAbortHandler)
		}
		// Initial connection: deliver the first two units, then die.
		w.Header().Set("Content-Length", fmt.Sprint(len(p.data)))
		w.Write(p.data[:cut])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	})
	mux.HandleFunc("/app.toc", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.toc.json", time.Time{}, bytes.NewReader(p.toc))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	m, st, err := Run(context.Background(), Options{
		URL:         srv.URL + "/app",
		TOCURL:      srv.URL + "/app.toc",
		Name:        p.app.Name,
		MainClass:   p.rp.MainClass,
		Client:      fastClient(),
		GateTimeout: 10 * time.Second,
		Run:         vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
	})
	if err != nil {
		t.Fatalf("stream death should degrade, not fail the run: %v", err)
	}
	checkRun(t, p, m, want)
	if st.Degraded == "" {
		t.Error("stats do not report the degradation")
	}
	if st.DemandFetches == 0 {
		t.Error("degraded run issued no demand fetches")
	}
}

// TestGateTimeoutDisabled: a negative GateTimeout must disable the
// deadline without breaking a healthy run.
func TestGateTimeoutDisabled(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	srv := serve(t, p, stream.Fault{})
	m, _, err := Run(context.Background(), Options{
		URL:         srv.URL + "/app",
		TOCURL:      srv.URL + "/app.toc",
		Name:        p.app.Name,
		MainClass:   p.rp.MainClass,
		Client:      fastClient(),
		GateTimeout: -1,
		Run:         vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, p, m, want)
}

// TestChaosGarbageRangeDoesNotPoisonTOC is the chaos-harness regression
// test for the fault layer garbaging unit-table resumes. DropEvery=128
// interrupts the TOC transfer mid-body, forcing the client to resume it
// with a Range request; with GarbageRangeEvery=1 every Range reply on
// /app is bogus, so before the fix the TOC could never be fetched and
// the run died at startup with "fetching unit table" — masking all the
// repair behaviour the schedule was meant to exercise. The unit table
// is exempt now: the run may still fail cleanly (every /app resume IS
// garbage), but never because the table was unfetchable.
func TestChaosGarbageRangeDoesNotPoisonTOC(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	if int64(len(p.toc)) <= 128 {
		t.Fatalf("unit table only %d bytes; the drop schedule cannot force a resume", len(p.toc))
	}
	_, err := chaosRun(t, p, want, stream.Fault{DropEvery: 128, GarbageRangeEvery: 1, Seed: 21}, fastClient())
	if err != nil && strings.Contains(err.Error(), "fetching unit table") {
		t.Fatalf("unit-table fetch poisoned by the garbage-range schedule: %v", err)
	}
}

// TestDemandFetchSurvivesSplicedCorruption is the S4 regression at the
// demand-fetch layer. A server drops the connection right after a
// corrupted prefix, so a client resuming from the last RECEIVED byte
// assembles a poisoned payload. Before the fix, fetchUnit burned a
// fixed three-attempt budget on such splices with no backoff and gave
// up; now the client restarts from the last VERIFIED byte (the range
// start) under its full retry budget, so five consecutive poisonings
// still end in a verified payload.
func TestDemandFetchSurvivesSplicedCorruption(t *testing.T) {
	p := plan(t, "Hanoi")
	toc := parseTOC(t, p)
	var u stream.UnitInfo
	for _, cand := range toc {
		if cand.Len >= 32 {
			u = cand
			break
		}
	}
	if u.Len < 32 {
		t.Fatal("no unit large enough to splice")
	}

	const poisonings = 5
	var poisoned atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		var from, to int64 = -1, -1
		fmt.Sscanf(r.Header.Get("Range"), "bytes=%d-%d", &from, &to)
		if from == u.Off && poisoned.Load() < poisonings {
			poisoned.Add(1)
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to, len(p.data)))
			w.WriteHeader(http.StatusPartialContent)
			prefix := append([]byte(nil), p.data[from:from+16]...)
			prefix[0] ^= 0x5a
			w.Write(prefix)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(p.data))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	rt := newSession(Options{URL: srv.URL + "/app", Client: fastClient()})
	rt.ctx = context.Background()
	payload, err := rt.fetchUnit(u)
	if err != nil {
		t.Fatalf("fetchUnit under %d poisonings: %v", poisonings, err)
	}
	if stream.ChecksumPayload(payload) != u.CRC {
		t.Fatal("fetchUnit returned an unverified payload")
	}
	if got := poisoned.Load(); got != poisonings {
		t.Fatalf("server poisoned %d fetches, want %d", got, poisonings)
	}
	if rt.demands != 1 || rt.refetches != poisonings {
		t.Fatalf("demands = %d, refetches = %d; want 1 demand and %d refetches",
			rt.demands, rt.refetches, poisonings)
	}
}

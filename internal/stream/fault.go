package stream

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Fault injects transport failures into an HTTP handler, for tests, the
// demo server, and the chaos harness: a composable set of link
// pathologies a mobile-code client must survive. Each fault is
// deterministic — byte-positional within a request, or counted across
// requests — so a seeded client fetching a fixed stream through a Fault
// observes a reproducible failure schedule:
//
//   - DropEvery kills the connection mid-body (abrupt disconnect).
//   - CorruptEvery flips a seeded bit in the body (silent corruption the
//     stream checksums must catch).
//   - StallAfter hangs the response without dropping it (the failure
//     mode retries alone cannot fix; the client's idle watchdog and the
//     VM's gate deadline must).
//   - TruncateAfter ends the response early but cleanly (truncation at
//     EOF).
//   - GarbageRangeEvery answers a Range request with a bogus 206 (a
//     misbehaving proxy or origin).
//   - FlakyTOC fails the first requests for the unit table with a 503.
//
// Every stall honours the request context, so a disconnected client
// never pins a server goroutine. A slow link is not a fault: the client
// shapes its own connection with a LinkClass.
type Fault struct {
	// DropEvery kills the connection after N response-body bytes on each
	// request (0 = never). The partial payload is flushed first, so the
	// client sees real progress followed by a mid-stream disconnect.
	DropEvery int64
	// CorruptEvery XORs a seeded, nonzero mask into every Nth body byte
	// of each request (0 = never). The corrupted positions and masks are
	// functions of (Seed, byte position), so identical requests corrupt
	// identically. Requests for ".toc" paths are exempt: the unit table
	// carries one whole-table checksum and has no repair path, so
	// positional corruption of it (identical on every retry) is
	// unrecoverable by construction — its failure mode is FlakyTOC.
	CorruptEvery int64
	// StallAfter stalls the response after N body bytes on each request
	// (0 = never): the bytes so far are flushed, then the handler hangs —
	// connection open, no progress — for StallFor, or until the client
	// disconnects when StallFor is 0. The stall engages once per request.
	StallAfter int64
	// StallFor bounds each stall; 0 stalls until the client gives up.
	StallFor time.Duration
	// TruncateAfter ends the response cleanly after N body bytes on each
	// request (0 = never): no connection reset, the body just stops
	// short of the promised length.
	TruncateAfter int64
	// GarbageRangeEvery answers every Nth Range request (counted across
	// all requests) with a garbage 206: a Content-Range that does not
	// match the requested offset and seeded junk bytes (0 = never).
	// Requests for ".toc" paths are exempt and do not advance the
	// counter: the unit table has no per-unit repair, so a garbaged
	// resume of it would fail the whole run and mask the
	// repair behaviour the schedule is meant to exercise — its failure
	// mode is FlakyTOC.
	GarbageRangeEvery int64
	// FlakyTOC fails the first N requests whose path ends in ".toc" with
	// a 503 (0 = never).
	FlakyTOC int
	// Seed drives the corruption masks and garbage bytes (0 = a fixed
	// default), making every chaos schedule reproducible.
	Seed uint64
	// Counters, when non-nil, receives per-kind injection counts (the
	// serve command exposes them at /metrics). Nil disables counting.
	Counters *FaultStats
}

// FaultStats counts injected faults by kind, for scraping while a chaos
// schedule runs. All fields are updated atomically by the wrapped
// handler and may be read concurrently.
type FaultStats struct {
	drops, corruptedBytes, stalls, truncations, garbageRanges, tocFailures atomic.Int64
}

// FaultCounts is a point-in-time snapshot of FaultStats.
type FaultCounts struct {
	// Drops is connections killed mid-body.
	Drops int64
	// CorruptedBytes is body bytes that had a mask XORed in.
	CorruptedBytes int64
	// Stalls is responses hung mid-body.
	Stalls int64
	// Truncations is responses ended cleanly short of their length.
	Truncations int64
	// GarbageRanges is Range requests answered with a bogus 206.
	GarbageRanges int64
	// TOCFailures is unit-table requests failed with a 503.
	TOCFailures int64
}

// Snapshot reads the counters. Safe on a nil receiver.
func (s *FaultStats) Snapshot() FaultCounts {
	if s == nil {
		return FaultCounts{}
	}
	return FaultCounts{
		Drops:          s.drops.Load(),
		CorruptedBytes: s.corruptedBytes.Load(),
		Stalls:         s.stalls.Load(),
		Truncations:    s.truncations.Load(),
		GarbageRanges:  s.garbageRanges.Load(),
		TOCFailures:    s.tocFailures.Load(),
	}
}

// count bumps one counter when stats collection is enabled.
func count(c *FaultStats, f func(*FaultStats) *atomic.Int64) {
	if c != nil {
		f(c).Add(1)
	}
}

// Enabled reports whether the fault injects anything.
func (f Fault) Enabled() bool {
	return f.DropEvery > 0 || f.CorruptEvery > 0 ||
		f.StallAfter > 0 || f.TruncateAfter > 0 || f.GarbageRangeEvery > 0 || f.FlakyTOC > 0
}

// seed returns the effective seed.
func (f Fault) seed() uint64 {
	if f.Seed != 0 {
		return f.Seed
	}
	return 0xC5A0C5A0
}

// corruptMask returns the nonzero XOR mask for the body byte at pos —
// a cheap position-keyed hash of the seed (the splitmix64 finalizer cut
// off after its second multiply, so not xrand.Mix64: the masks are
// pinned by the chaos schedules).
func (f Fault) corruptMask(pos int64) byte {
	x := f.seed() ^ uint64(pos)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	m := byte(x)
	if m == 0 {
		m = 0x80
	}
	return m
}

// Wrap returns h with the fault applied to every request. A no-op fault
// returns h unchanged.
func (f Fault) Wrap(h http.Handler) http.Handler {
	if !f.Enabled() {
		return h
	}
	var rangeReqs, tocReqs atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		isTOC := strings.HasSuffix(r.URL.Path, ".toc")
		if f.FlakyTOC > 0 && isTOC && tocReqs.Add(1) <= int64(f.FlakyTOC) {
			count(f.Counters, func(s *FaultStats) *atomic.Int64 { return &s.tocFailures })
			http.Error(w, "unit table temporarily unavailable", http.StatusServiceUnavailable)
			return
		}
		// Unit-table requests never enter the garbage-Range schedule:
		// they are exempt AND do not advance the counter, so the same
		// schedule garbages the same /app ranges whether or not the
		// client happened to resume a .toc fetch in between.
		if f.GarbageRangeEvery > 0 && !isTOC && r.Header.Get("Range") != "" &&
			rangeReqs.Add(1)%f.GarbageRangeEvery == 0 {
			count(f.Counters, func(s *FaultStats) *atomic.Int64 { return &s.garbageRanges })
			// A bogus 206: the Content-Range does not match what was
			// asked for, and the body is seeded junk. A correct client
			// rejects the reply and retries.
			w.Header().Set("Content-Range", "bytes 0-15/*")
			w.WriteHeader(http.StatusPartialContent)
			junk := make([]byte, 16)
			for i := range junk {
				junk[i] = f.corruptMask(int64(i))
			}
			w.Write(junk)
			return
		}
		fw := &faultWriter{rw: w, f: f, ctx: r.Context(), dropRemaining: f.DropEvery,
			noCorrupt: strings.HasSuffix(r.URL.Path, ".toc")}
		if f.StallAfter > 0 {
			fw.stallRemaining = f.StallAfter
		} else {
			fw.stallRemaining = -1
		}
		if f.TruncateAfter > 0 {
			fw.truncRemaining = f.TruncateAfter
		} else {
			fw.truncRemaining = -1
		}
		h.ServeHTTP(fw, r)
	})
}

// faultWriter applies the per-request, byte-positional faults: stall,
// truncation, corruption, and the drop budget.
type faultWriter struct {
	rw  http.ResponseWriter
	f   Fault
	ctx context.Context

	pos            int64 // body bytes seen so far this request
	noCorrupt      bool  // .toc request: exempt from CorruptEvery
	dropRemaining  int64 // bytes until the connection is killed (0 budget = disabled handled by f.DropEvery)
	stallRemaining int64 // bytes until the stall; -1 = disabled or already stalled
	truncRemaining int64 // bytes until clean truncation; -1 = disabled
	truncated      bool
}

func (w *faultWriter) Header() http.Header { return w.rw.Header() }

func (w *faultWriter) WriteHeader(code int) { w.rw.WriteHeader(code) }

func (w *faultWriter) Flush() {
	if fl, ok := w.rw.(http.Flusher); ok {
		fl.Flush()
	}
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if w.truncated {
		return 0, http.ErrHandlerTimeout // any error: just abort the copy loop
	}
	written := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > copyBufSize {
			chunk = chunk[:copyBufSize] // one pooled buffer holds a corrupted copy
		}
		// Split at the stall point so the pre-stall bytes are delivered.
		stallNow := false
		if w.stallRemaining >= 0 {
			if int64(len(chunk)) >= w.stallRemaining {
				chunk = chunk[:w.stallRemaining]
				stallNow = true
			}
		}
		truncNow := false
		if w.truncRemaining >= 0 && int64(len(chunk)) >= w.truncRemaining {
			chunk = chunk[:w.truncRemaining]
			truncNow = true
		}
		n, err := w.writeChunk(chunk)
		written += n
		w.pos += int64(n)
		if w.stallRemaining >= 0 {
			w.stallRemaining -= int64(n)
		}
		if w.truncRemaining >= 0 {
			w.truncRemaining -= int64(n)
		}
		if err != nil {
			return written, err
		}
		p = p[n:]
		if truncNow {
			count(w.f.Counters, func(s *FaultStats) *atomic.Int64 { return &s.truncations })
			w.Flush()
			w.truncated = true
			return written, http.ErrHandlerTimeout
		}
		if stallNow {
			count(w.f.Counters, func(s *FaultStats) *atomic.Int64 { return &s.stalls })
			w.stallRemaining = -1 // one stall per request
			w.Flush()
			if err := w.stall(); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// stall holds the response for StallFor, or until the client
// disconnects when StallFor is 0: the pathological link that never
// recovers and never errors. It returns early, with the request's
// error, when the client is gone.
func (w *faultWriter) stall() error {
	var resume <-chan time.Time
	if w.f.StallFor > 0 {
		t := time.NewTimer(w.f.StallFor)
		defer t.Stop()
		resume = t.C
	}
	select {
	case <-w.ctx.Done():
		return w.ctx.Err()
	case <-resume:
		return nil
	}
}

// writeChunk applies corruption and the drop budget to one chunk that
// contains no stall or truncation point.
func (w *faultWriter) writeChunk(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if w.f.CorruptEvery > 0 && !w.noCorrupt {
		// Corrupt positions are 1-based multiples of CorruptEvery within
		// the request body; copy so the caller's buffer stays intact.
		// The copy is pooled: Write hands over at most copyBufSize bytes
		// at a time, and they are consumed by rw.Write before this
		// function returns, so the scratch can be recycled.
		bp := GetCopyBuf()
		defer PutCopyBuf(bp)
		q := (*bp)[:len(p)]
		copy(q, p)
		first := w.f.CorruptEvery - (w.pos % w.f.CorruptEvery) - 1
		for i := first; i < int64(len(q)); i += w.f.CorruptEvery {
			q[i] ^= w.f.corruptMask(w.pos + i)
			count(w.f.Counters, func(s *FaultStats) *atomic.Int64 { return &s.corruptedBytes })
		}
		p = q
	}
	if w.f.DropEvery <= 0 {
		return w.rw.Write(p)
	}
	if w.dropRemaining <= 0 {
		w.abort()
	}
	if int64(len(p)) > w.dropRemaining {
		p = p[:w.dropRemaining]
	}
	n, err := w.rw.Write(p)
	w.dropRemaining -= int64(n)
	if err != nil {
		return n, err
	}
	if w.dropRemaining <= 0 {
		// Deliver what was written, then kill the connection.
		w.Flush()
		count(w.f.Counters, func(s *FaultStats) *atomic.Int64 { return &s.drops })
		w.abort()
	}
	return n, nil
}

// abort drops the connection without a graceful close; net/http
// recognizes ErrAbortHandler and does not log it.
func (w *faultWriter) abort() { panic(http.ErrAbortHandler) }

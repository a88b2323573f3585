package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nonstrict/internal/obs"
	"nonstrict/internal/xrand"
)

// Default retry policy.
const (
	defaultRequestTimeout = 10 * time.Second
	defaultMaxRetries     = 8
	defaultBackoffBase    = 100 * time.Millisecond
	defaultBackoffMax     = 5 * time.Second
)

// FetchClient is a fault-tolerant HTTP streaming client for interleaved
// virtual files. Every request carries a per-request timeout that also
// acts as an idle watchdog on the streaming body; failures retry under
// capped exponential backoff with deterministic jitter; and a dropped
// connection resumes from the current byte offset with a Range request,
// so a transfer completes with correct bytes across arbitrarily many
// mid-stream disconnects. Demand fetches of specific byte ranges
// (misprediction corrections) go through FetchRangeVerified, which
// applies the same policy and checks the range before returning it.
// Reconnects and range restarts go through one retry step, under one
// meaning of MaxRetries. The zero value is ready to use.
//
// A FetchClient is safe for concurrent use; its counters aggregate
// across all transfers.
type FetchClient struct {
	// HTTP issues the requests; nil uses a default client. Do not set a
	// global Timeout on it — it would cap whole streaming bodies; the
	// per-request watchdog handles hung transfers.
	HTTP *http.Client
	// RequestTimeout bounds each attempt: time to response headers, and
	// thereafter the maximum idle gap between body reads. 0 means 10s.
	RequestTimeout time.Duration
	// MaxRetries is how many times a failure is retried before the
	// transfer fails: a connection gets MaxRetries+1 consecutive
	// attempts that deliver no new bytes, and a verified range
	// MaxRetries+1 whole-range attempts. 0 means 8.
	MaxRetries int
	// BackoffBase is the first retry's backoff; each failure doubles it
	// up to a cap of 5s. 0 means 100ms.
	BackoffBase time.Duration
	// JitterSeed seeds the deterministic jitter source, so a seeded
	// client retries on a reproducible schedule. 0 uses a fixed seed.
	JitterSeed uint64
	// Obs, when non-nil, receives transfer events (retries with their
	// backoff, Range resumes with their offset). Set it before the first
	// request; it must not change while transfers are in flight.
	Obs *obs.Recorder

	// sleep waits between retries; tests override it to observe the
	// backoff schedule without real delays. nil sleeps on a timer,
	// honouring ctx.
	sleep func(ctx context.Context, d time.Duration) error
	// backoffMax caps the backoff; tests lower it. 0 means 5s.
	backoffMax time.Duration

	rngMu sync.Mutex
	rng   *xrand.Rand

	requests atomic.Int64
	retries  atomic.Int64
	resumes  atomic.Int64
	bytes    atomic.Int64
}

// FetchStats is a snapshot of a client's transfer counters.
type FetchStats struct {
	// Requests is the number of HTTP requests issued.
	Requests int64
	// Retries counts failed attempts that were retried after backoff.
	Retries int64
	// Resumes counts reconnects that continued a partial transfer from
	// its current offset.
	Resumes int64
	// BytesTransferred is the payload bytes received across all
	// transfers (bytes re-fetched after a resume are not double-counted;
	// resumption continues from the exact drop offset).
	BytesTransferred int64
}

// Stats returns a snapshot of the client's counters.
func (c *FetchClient) Stats() FetchStats {
	return FetchStats{
		Requests:         c.requests.Load(),
		Retries:          c.retries.Load(),
		Resumes:          c.resumes.Load(),
		BytesTransferred: c.bytes.Load(),
	}
}

func (c *FetchClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *FetchClient) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return defaultRequestTimeout
}

func (c *FetchClient) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return defaultMaxRetries
}

// backoff returns the jittered delay before retry number fails (1-based):
// capped exponential, uniformly jittered into [d/2, d).
func (c *FetchClient) backoff(fails int) time.Duration {
	base := c.BackoffBase
	if base <= 0 {
		base = defaultBackoffBase
	}
	max := c.backoffMax
	if max <= 0 {
		max = defaultBackoffMax
	}
	d := base
	for i := 1; i < fails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	c.rngMu.Lock()
	if c.rng == nil {
		seed := c.JitterSeed
		if seed == 0 {
			seed = 0xC0FFEE
		}
		c.rng = xrand.New(seed)
	}
	// Sub-2ns bases truncate d/2 to zero; skip the jitter rather than
	// dividing by it.
	jittered := d
	if half := d / 2; half > 0 {
		jittered = half + time.Duration(c.rng.Int63())%half
	}
	c.rngMu.Unlock()
	return jittered
}

func (c *FetchClient) sleepFn() func(context.Context, time.Duration) error {
	if c.sleep != nil {
		return c.sleep
	}
	return func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
}

// ErrFetchFailed wraps terminal client failures.
var ErrFetchFailed = errors.New("stream: fetch failed")

// ErrArtifactChanged reports that the server's artifact was replaced
// mid-transfer: the ETag pinned on the first response no longer matches,
// and bytes already delivered came from the old version. Splicing a
// resume from the new version onto them would hand the loader a
// frankenstream, so the transfer fails instead; FetchRangeVerified
// restarts the whole range against the new artifact, and whole-stream
// callers surface the error.
var ErrArtifactChanged = errors.New("stream: artifact changed mid-transfer")

// attemptError is a failed attempt that tells retry more than "try
// again": permanent marks a failure no retry can fix (a 4xx status, a
// request that cannot be built), and after carries a shedding server's
// Retry-After hint, which replaces the backoff — the server knows better
// than our exponential guess when capacity will return.
type attemptError struct {
	err       error
	permanent bool
	after     time.Duration
}

func (e *attemptError) Error() string { return e.err.Error() }

// maxRetryAfter caps how long a server-supplied Retry-After can make the
// client sleep; a misconfigured (or hostile) hint must not park a
// transfer for minutes.
const maxRetryAfter = 30 * time.Second

// parseRetryAfter reads a Retry-After value in either of its RFC 9110
// forms — delta-seconds or an HTTP-date — as a delay relative to now.
// The result is clamped to maxRetryAfter; 0 means absent or unusable
// (including dates already in the past, which mean "retry now" and so
// fall back to the client's own backoff schedule).
func parseRetryAfter(h string, now time.Time) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		// Clamp before converting: a pathological delta-seconds can
		// overflow time.Duration's int64 nanoseconds.
		if secs > int(maxRetryAfter/time.Second) {
			return maxRetryAfter
		}
		return time.Duration(secs) * time.Second
	}
	when, err := http.ParseTime(h)
	if err != nil {
		return 0
	}
	d := when.Sub(now)
	if d <= 0 {
		return 0
	}
	return min(d, maxRetryAfter)
}

// Open starts streaming url and returns a reader over its bytes. The
// reader transparently reconnects and resumes from the current offset on
// timeouts and dropped connections; it fails only after MaxRetries+1
// consecutive attempts deliver nothing, or when ctx is done. The first
// connection is made eagerly so unreachable servers and permanent HTTP
// errors surface here.
func (c *FetchClient) Open(ctx context.Context, url string) (io.ReadCloser, error) {
	return c.open(ctx, url)
}

func (c *FetchClient) open(ctx context.Context, url string) (*resumeReader, error) {
	r := &resumeReader{c: c, ctx: ctx, url: url, end: -1, total: -1}
	if err := r.connect(nil); err != nil {
		return nil, err
	}
	return r, nil
}

// Fetch downloads url into w, resuming through failures, and returns the
// byte count delivered. A *bytes.Buffer is grown once to the response's
// length, when the response states one no larger than the payload pool's
// bound, so the body lands without the buffer regrowing as it arrives; a
// larger or unstated length grows it as it comes, so a length the server
// lies about cannot reserve more than that.
func (c *FetchClient) Fetch(ctx context.Context, url string, w io.Writer) (int64, error) {
	r, err := c.open(ctx, url)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if b, ok := w.(*bytes.Buffer); ok && r.total > 0 && r.total <= maxPooledBuf {
		// ReadFrom keeps MinRead bytes free to see EOF into.
		b.Grow(int(r.total) + bytes.MinRead)
	}
	return io.Copy(w, r)
}

// FetchRangeVerified downloads the length bytes at offset from and
// verifies them against the unit table's checksum before returning them
// — the demand/repair fetch path. The distinction it enforces: a
// transfer interrupted mid-range resumes at the last RECEIVED byte like
// any other fetch, but received is not verified — a unit's bytes can
// only be checked once the whole range is in. When the assembled
// payload fails its checksum (a corrupt prefix spliced across a
// reconnect, a lying proxy), or the artifact changed under the transfer,
// the unverified bytes are discarded and the fetch restarts from the
// last verified byte, which for a unit fetch is the range start, with
// nothing pinned. Restarts back off under the same retry step as
// reconnects, so a range that never verifies fails cleanly with
// ErrStreamIntegrity after MaxRetries+1 attempts instead of installing
// garbage.
// It returns the verified payload and the number of whole-range
// attempts made (1 when the first assembled payload verified).
func (c *FetchClient) FetchRangeVerified(ctx context.Context, url string, from, length int64, crc uint32) ([]byte, int, error) {
	if from < 0 || length <= 0 {
		return nil, 0, fmt.Errorf("%w: bad range [%d, %d)", ErrFetchFailed, from, from+length)
	}
	p := make([]byte, length)
	for fails := 0; ; {
		r := &resumeReader{c: c, ctx: ctx, url: url, off: from, start: from, end: from + length, total: -1}
		_, err := io.ReadFull(r, p)
		r.Close()
		switch {
		case err == nil && ChecksumPayload(p) == crc:
			return p, fails + 1, nil
		case err == nil:
			c.Obs.Emit(obs.CRCFail, url, length, 0)
			err = fmt.Errorf("%w: range [%d,%d) failed its checksum", ErrStreamIntegrity, from, from+length)
		case errors.Is(err, ErrArtifactChanged):
			// The partial bytes came from a replaced artifact: garbage by
			// definition, exactly like a poisoned splice.
			err = fmt.Errorf("%w: range [%d,%d): %v", ErrStreamIntegrity, from, from+length, err)
		default:
			return nil, fails + 1, err
		}
		if err := c.retry(ctx, url, &fails, err); err != nil {
			return nil, fails, err
		}
	}
}

// retry is the client's one retry decision, made for every failed
// attempt on every path: a connection that failed, or dropped before
// delivering anything, and a verified range that did not verify. It
// charges the failure to the budget *fails counts; while MaxRetries
// allows, it backs off — for as long as a shedding server's Retry-After
// says, if it said — reports the retry and returns nil. Otherwise it
// returns the terminal error: a changed artifact as itself (no retry can
// make the bytes already delivered coherent with the new ones), a
// permanent failure at once, and a spent budget as ErrFetchFailed, or
// as ErrStreamIntegrity when the range kept failing its checksum.
func (c *FetchClient) retry(ctx context.Context, url string, fails *int, cause error) error {
	var ae *attemptError
	errors.As(cause, &ae)
	switch {
	case errors.Is(cause, ErrArtifactChanged):
		return cause
	case ae != nil && ae.permanent:
		return fmt.Errorf("%w: %v", ErrFetchFailed, cause)
	}
	*fails++
	if *fails > c.maxRetries() {
		spent := ErrFetchFailed
		if errors.Is(cause, ErrStreamIntegrity) {
			spent = ErrStreamIntegrity
		}
		return fmt.Errorf("%w: %d consecutive attempts failed, last: %v", spent, *fails, cause)
	}
	c.retries.Add(1)
	d := c.backoff(*fails)
	if ae != nil && ae.after > 0 {
		d = ae.after
	}
	if err := c.sleepFn()(ctx, d); err != nil {
		return err
	}
	c.Obs.Emit(obs.Retry, url, 0, d)
	return nil
}

// resumeReader streams one URL with reconnect-and-resume. Reads return
// whatever bytes each connection yields; when a connection dies the next
// Read reconnects with a Range request from the current offset.
type resumeReader struct {
	c   *FetchClient
	ctx context.Context
	url string

	start int64  // first byte of the transfer
	off   int64  // next byte offset to deliver
	end   int64  // exclusive end, -1 = to EOF
	total int64  // total stream size from the server, -1 = unknown
	etag  string // validator pinned from the first response; "" until seen

	body      io.ReadCloser
	cancelReq context.CancelFunc
	watchdog  *time.Timer
	fails     int // consecutive attempts with no progress
	finished  bool
	closed    bool
}

// connect establishes one connection at the current offset. cause, when
// non-nil, is why the previous connection ended without progress, and
// is charged to the retry budget before the first attempt — unless ctx
// is done, which is what ended the connection and is not a failure.
func (r *resumeReader) connect(cause error) error {
	for {
		if cause != nil && r.ctx.Err() == nil {
			if err := r.c.retry(r.ctx, r.url, &r.fails, cause); err != nil {
				return err
			}
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if cause = r.tryConnect(); cause == nil {
			return nil
		}
	}
}

// tryConnect issues a single request for [r.off, r.end) and, when the
// response continues the transfer at r.off, installs its body and idle
// watchdog.
func (r *resumeReader) tryConnect() error {
	attemptCtx, cancel := context.WithCancel(r.ctx)
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodGet, r.url, nil)
	if err != nil {
		cancel()
		return &attemptError{err: err, permanent: true}
	}
	if r.off > 0 || r.end >= 0 {
		if r.end >= 0 {
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", r.off, r.end-1))
		} else {
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-", r.off))
		}
		if r.etag != "" {
			// If-Range makes the splice hazard the server's problem: a
			// matching artifact yields the 206 we asked for, a replaced
			// one yields a full 200 of the new bytes instead of silently
			// resuming into them at the wrong offset.
			req.Header.Set("If-Range", r.etag)
		}
	}
	watchdog := time.AfterFunc(r.c.requestTimeout(), cancel)
	r.c.requests.Add(1)
	resp, err := r.c.httpClient().Do(req)
	if err == nil {
		if err = r.admit(resp, watchdog); err != nil {
			resp.Body.Close()
		}
	}
	if err != nil {
		watchdog.Stop()
		cancel()
		return err
	}
	if r.off > r.start {
		r.c.resumes.Add(1)
		r.c.Obs.Emit(obs.Resume, r.url, r.off, 0)
	}
	r.body = resp.Body
	r.cancelReq = cancel
	r.watchdog = watchdog
	return nil
}

// admit checks that resp continues the transfer at r.off, pinning the
// artifact's ETag on the way, and skips the body of a 200 forward to
// r.off. Any error rejects the response.
func (r *resumeReader) admit(resp *http.Response, watchdog *time.Timer) error {
	partial := resp.StatusCode == http.StatusPartialContent
	if !partial && resp.StatusCode != http.StatusOK {
		return &attemptError{
			err:       fmt.Errorf("stream: server returned %s", resp.Status),
			permanent: resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests,
			after:     parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
		}
	}
	if etag := resp.Header.Get("ETag"); etag != "" && etag != r.etag {
		// The artifact is not the one pinned. On a 200 with nothing
		// delivered yet, the new version is simply adopted: the skip below
		// lands at our offset within the NEW bytes, a fresh coherent
		// transfer. With old bytes already handed out, appending
		// new-version bytes would splice two artifacts into one stream;
		// and a 206 against a different validator, impossible under
		// If-Range, offers bytes from an artifact we never started.
		if r.etag != "" && (partial || r.off > r.start) {
			return fmt.Errorf("%w: pinned %s, server now serves %s", ErrArtifactChanged, r.etag, etag)
		}
		r.etag = etag
	}
	skip, total := r.off, resp.ContentLength
	if partial {
		// A 206 whose Content-Range is missing or unparseable gives no
		// proof the body starts at our resume offset; accepting it could
		// splice bytes at the wrong position. Treat it as a retryable
		// failure, like a dropped connection.
		var start int64
		var ok bool
		if start, total, ok = parseContentRange(resp.Header.Get("Content-Range")); !ok {
			return fmt.Errorf("stream: 206 with missing or bad Content-Range %q", resp.Header.Get("Content-Range"))
		}
		if start != r.off {
			return fmt.Errorf("stream: server resumed at %d, want %d", start, r.off)
		}
		skip = 0
	}
	if total >= 0 {
		r.total = total
	}
	if skip > 0 {
		// The server ignored our Range request; skip to the offset,
		// resetting the watchdog as the skipped bytes stream in.
		if err := discardN(resp.Body, skip, watchdog, r.c.requestTimeout()); err != nil {
			return fmt.Errorf("stream: skipping to offset %d: %w", r.off, err)
		}
	}
	return nil
}

func discardN(body io.Reader, n int64, watchdog *time.Timer, timeout time.Duration) error {
	bp := GetCopyBuf()
	defer PutCopyBuf(bp)
	buf := *bp
	for n > 0 {
		chunk := int64(len(buf))
		if chunk > n {
			chunk = n
		}
		k, err := io.ReadFull(body, buf[:chunk])
		if k > 0 {
			watchdog.Reset(timeout)
			n -= int64(k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// teardown drops the current connection.
func (r *resumeReader) teardown() {
	if r.watchdog != nil {
		r.watchdog.Stop()
		r.watchdog = nil
	}
	if r.body != nil {
		r.body.Close()
		r.body = nil
	}
	if r.cancelReq != nil {
		r.cancelReq()
		r.cancelReq = nil
	}
}

// done reports whether every requested byte has been delivered.
func (r *resumeReader) done() bool {
	if r.end >= 0 {
		return r.off >= r.end
	}
	return r.total >= 0 && r.off >= r.total
}

func (r *resumeReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, errors.New("stream: read from closed fetch reader")
	}
	for {
		if r.finished || r.done() {
			r.finished = true
			r.teardown()
			return 0, io.EOF
		}
		if r.body == nil {
			if err := r.connect(nil); err != nil {
				return 0, err
			}
		}
		pp := p
		if r.end >= 0 && int64(len(pp)) > r.end-r.off {
			pp = pp[:r.end-r.off]
		}
		n, err := r.body.Read(pp)
		if n > 0 {
			r.off += int64(n)
			r.c.bytes.Add(int64(n))
			r.fails = 0
			r.watchdog.Reset(r.c.requestTimeout())
		}
		switch {
		case err == nil:
			return n, nil
		case err == io.EOF && (r.done() || (r.end < 0 && r.total < 0)):
			// Complete — or no length information to contradict EOF.
			r.finished = true
			r.teardown()
			return n, io.EOF
		}
		// Dropped mid-stream (or EOF short of the promised length): tear
		// down and resume. Progress is handed back first; the retry budget
		// only burns on attempts that delivered nothing.
		r.teardown()
		if n > 0 {
			return n, nil
		}
		if err := r.connect(err); err != nil {
			return 0, err
		}
	}
}

func (r *resumeReader) Close() error {
	r.closed = true
	r.teardown()
	return nil
}

// parseContentRange extracts the start offset and total size from a
// "bytes start-end/total" header; total is -1 for "*".
func parseContentRange(h string) (start, total int64, ok bool) {
	h = strings.TrimPrefix(h, "bytes ")
	slash := strings.IndexByte(h, '/')
	dash := strings.IndexByte(h, '-')
	if slash < 0 || dash < 0 || dash > slash {
		return 0, 0, false
	}
	start, err := strconv.ParseInt(h[:dash], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	total = -1
	if t := h[slash+1:]; t != "*" {
		total, err = strconv.ParseInt(t, 10, 64)
		if err != nil {
			return 0, 0, false
		}
	}
	return start, total, true
}

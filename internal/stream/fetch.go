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
// (misprediction corrections) go through FetchRange, which applies the
// same policy. The zero value is ready to use.
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
	// MaxRetries caps consecutive failed attempts (attempts that deliver
	// no new bytes) before the transfer fails. 0 means 8.
	MaxRetries int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between retries. 0 means 100ms and 5s.
	BackoffBase, BackoffMax time.Duration
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
	max := c.BackoffMax
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

// permanentError marks failures no retry can fix (4xx statuses).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// retryAfterError is a retryable failure carrying the server's
// Retry-After hint; the backoff honours the hint instead of its own
// schedule. A shedding server knows better than our exponential guess
// when capacity will return.
type retryAfterError struct {
	after time.Duration
	err   error
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

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
// timeouts and dropped connections; it fails only after MaxRetries
// consecutive attempts deliver nothing, or when ctx is done. The first
// connection is made eagerly so unreachable servers and permanent HTTP
// errors surface here.
func (c *FetchClient) Open(ctx context.Context, url string) (io.ReadCloser, error) {
	r := &resumeReader{c: c, ctx: ctx, url: url, end: -1, total: -1}
	if err := r.connect(); err != nil {
		return nil, err
	}
	return r, nil
}

// Fetch downloads url into w, resuming through failures, and returns the
// byte count delivered.
func (c *FetchClient) Fetch(ctx context.Context, url string, w io.Writer) (int64, error) {
	r, err := c.Open(ctx, url)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return io.Copy(w, r)
}

// FetchRange downloads length bytes starting at offset from into w — the
// demand-fetch path: when a misprediction needs bytes out of stream
// order, the correction retries and resumes under the same policy as the
// main transfer.
func (c *FetchClient) FetchRange(ctx context.Context, url string, from, length int64, w io.Writer) (int64, error) {
	if from < 0 || length <= 0 {
		return 0, fmt.Errorf("%w: bad range [%d, %d)", ErrFetchFailed, from, from+length)
	}
	r := &resumeReader{c: c, ctx: ctx, url: url, off: from, start: from, end: from + length, total: -1}
	if err := r.connect(); err != nil {
		return 0, err
	}
	defer r.Close()
	return io.Copy(w, r)
}

// FetchRangeVerified downloads the length bytes at offset from and
// verifies them against the unit table's checksum before returning them
// — the demand/repair fetch path. The distinction it enforces: a
// transfer interrupted mid-range resumes at the last RECEIVED byte like
// any other fetch, but received is not verified — a unit's bytes can
// only be checked once the whole range is in. When the assembled
// payload fails its checksum (a corrupt prefix spliced across a
// reconnect, a lying proxy), the unverified bytes are discarded and the
// fetch restarts from the last verified byte, which for a unit fetch is
// the range start. Restarts back off and share the client's retry
// budget, so a range that never verifies fails cleanly with
// ErrStreamIntegrity instead of installing garbage or burning the
// caller's attempts on poisoned splices.
// It returns the verified payload and the number of whole-range
// attempts made (1 when the first assembled payload verified).
func (c *FetchClient) FetchRangeVerified(ctx context.Context, url string, from, length int64, crc uint32) ([]byte, int, error) {
	var buf bytes.Buffer
	for fails := 0; ; {
		buf.Reset()
		_, err := c.FetchRange(ctx, url, from, length, &buf)
		switch {
		case err == nil:
			if p := buf.Bytes(); ChecksumPayload(p) == crc {
				return p, fails + 1, nil
			}
			c.Obs.Emit(obs.CRCFail, url, length, 0)
		case errors.Is(err, ErrArtifactChanged):
			// The artifact was replaced under the transfer. The partial
			// bytes are garbage by definition; restart the whole range,
			// pinning the new version, exactly as a checksum failure
			// restarts a poisoned splice.
		default:
			return nil, fails + 1, err
		}
		fails++
		if fails >= c.maxRetries() {
			return nil, fails, fmt.Errorf("%w: range [%d,%d) failed verification %d times",
				ErrStreamIntegrity, from, from+length, fails)
		}
		c.retries.Add(1)
		d := c.backoff(fails)
		if err := c.sleepFn()(ctx, d); err != nil {
			return nil, fails, err
		}
		c.Obs.Emit(obs.Retry, url, 0, d)
	}
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
	lastErr   error
	finished  bool
	closed    bool
}

// connect establishes one connection at the current offset, retrying
// with backoff until it succeeds, fails permanently, or exhausts
// MaxRetries consecutive failures.
func (r *resumeReader) connect() error {
	for {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		err := r.tryConnect()
		if err == nil {
			return nil
		}
		r.lastErr = err
		if errors.Is(err, ErrArtifactChanged) {
			// Bytes already delivered came from a dead artifact; no
			// reconnect can make the spliced stream coherent.
			return err
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return fmt.Errorf("%w: %v", ErrFetchFailed, err)
		}
		r.fails++
		if r.fails > r.c.maxRetries() {
			return fmt.Errorf("%w: %d consecutive attempts failed, last: %v", ErrFetchFailed, r.fails, err)
		}
		r.c.retries.Add(1)
		d := r.c.backoff(r.fails)
		var ra *retryAfterError
		if errors.As(err, &ra) && ra.after > 0 {
			// A shedding server said when to come back; believe it
			// (within reason) instead of the exponential guess.
			d = min(ra.after, maxRetryAfter)
		}
		if serr := r.c.sleepFn()(r.ctx, d); serr != nil {
			return serr
		}
		r.c.Obs.Emit(obs.Retry, r.url, 0, d)
	}
}

// tryConnect issues a single request for [r.off, r.end) and installs the
// body and its idle watchdog.
func (r *resumeReader) tryConnect() error {
	attemptCtx, cancel := context.WithCancel(r.ctx)
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodGet, r.url, nil)
	if err != nil {
		cancel()
		return &permanentError{err}
	}
	ranged := r.off > 0 || r.end >= 0
	if ranged {
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
	if err != nil {
		watchdog.Stop()
		cancel()
		return err
	}

	respETag := resp.Header.Get("ETag")
	discard := int64(0) // bytes to skip when the server ignored Range
	switch resp.StatusCode {
	case http.StatusOK:
		if r.etag != "" && respETag != "" && respETag != r.etag {
			// The artifact changed since we pinned. With nothing
			// delivered yet the new version is simply adopted (the
			// discard below skips to our offset within the NEW bytes,
			// which is a fresh coherent transfer). With old bytes
			// already handed out, appending new-version bytes would
			// splice two artifacts into one stream — fail instead.
			if r.off > r.start {
				resp.Body.Close()
				watchdog.Stop()
				cancel()
				return fmt.Errorf("%w: pinned %s, server now serves %s", ErrArtifactChanged, r.etag, respETag)
			}
			r.etag = respETag
		}
		if r.etag == "" {
			r.etag = respETag
		}
		if resp.ContentLength >= 0 {
			r.total = resp.ContentLength
		}
		discard = r.off
	case http.StatusPartialContent:
		if r.etag != "" && respETag != "" && respETag != r.etag {
			// A 206 against a different validator should be impossible
			// under If-Range; a server (or proxy) that does it anyway is
			// offering bytes from an artifact we never started.
			resp.Body.Close()
			watchdog.Stop()
			cancel()
			return fmt.Errorf("%w: 206 with ETag %s, pinned %s", ErrArtifactChanged, respETag, r.etag)
		}
		if r.etag == "" {
			r.etag = respETag
		}
		// A 206 whose Content-Range is missing or unparseable gives no
		// proof the body starts at our resume offset; accepting it could
		// splice bytes at the wrong position. Treat it as a retryable
		// failure, like a dropped connection.
		start, total, ok := parseContentRange(resp.Header.Get("Content-Range"))
		if !ok {
			resp.Body.Close()
			watchdog.Stop()
			cancel()
			return fmt.Errorf("stream: 206 with missing or bad Content-Range %q", resp.Header.Get("Content-Range"))
		}
		if start != r.off {
			resp.Body.Close()
			watchdog.Stop()
			cancel()
			return fmt.Errorf("stream: server resumed at %d, want %d", start, r.off)
		}
		if total >= 0 {
			r.total = total
		}
	default:
		resp.Body.Close()
		watchdog.Stop()
		cancel()
		err := fmt.Errorf("stream: server returned %s", resp.Status)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return &permanentError{err}
		}
		if after := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); after > 0 {
			return &retryAfterError{after: after, err: err}
		}
		return err
	}

	if discard > 0 {
		// The server ignored our Range request; skip to the offset,
		// resetting the watchdog as the skipped bytes stream in.
		if err := discardN(resp.Body, discard, watchdog, r.c.requestTimeout()); err != nil {
			resp.Body.Close()
			watchdog.Stop()
			cancel()
			return fmt.Errorf("stream: skipping to offset %d: %w", r.off, err)
		}
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
			if err := r.connect(); err != nil {
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
		default:
			// Dropped mid-stream (or EOF short of the promised length):
			// tear down and resume. Progress is handed back first; the
			// retry budget only burns on attempts that delivered nothing.
			r.lastErr = err
			r.teardown()
			if n > 0 {
				return n, nil
			}
			r.fails++
			if r.fails > r.c.maxRetries() {
				return 0, fmt.Errorf("%w: %d consecutive attempts failed, last: %v", ErrFetchFailed, r.fails, err)
			}
			r.c.retries.Add(1)
			d := r.c.backoff(r.fails)
			if serr := r.c.sleepFn()(r.ctx, d); serr != nil {
				return 0, serr
			}
			r.c.Obs.Emit(obs.Retry, r.url, 0, d)
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

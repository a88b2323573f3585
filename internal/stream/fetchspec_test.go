package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"nonstrict/internal/obs"
	"nonstrict/internal/xrand"
)

// This file is the executable specification of FetchClient's resume and
// retry logic, in the style of internal/check: the client's behaviour is
// written twice. fetchModel is a pure, single-threaded model of what the
// client's state — offset, range end and total, the pinned ETag, the
// failures charged to each budget — must do with each server answer; the
// real client runs the same answers through a scripted http.RoundTripper,
// with no sockets and with its backoff sleeps recorded instead of waited
// out. TestFetchSpec enumerates every sequence of up to three answers
// from the alphabet below, for both Fetch and FetchRangeVerified, and
// requires the two to agree on every request sent (Range, If-Range), the
// bytes delivered, the error class, FetchStats, the sleeps and the
// transfer events. Past its script the server answers as a correct
// server of artifact A would, so every sequence ends.
//
// The named tests at the end are the client's historical fixes as the
// answer sequences that used to break them, each pinning the outcome the
// fix promised on top of the model/client agreement.

const (
	specLen     = 64 // artifact size
	specFrom    = 16 // the verified range is [specFrom, specFrom+specRange)
	specRange   = 32
	specRetries = 2 // MaxRetries: small enough for three answers to spend it
	specURL     = "http://spec.invalid/app"
	specETagA   = `"A"`
	specETagB   = `"B"`
	specSeed    = 3
)

var (
	// specA is the artifact a transfer starts on; specB is a replacement
	// of the same length that differs in every byte.
	specA   = xrand.New(specSeed).Bytes(specLen)
	specB   = flipAll(specA)
	specCRC = ChecksumPayload(specA[specFrom : specFrom+specRange])
)

func flipAll(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = ^c
	}
	return out
}

// specReq is one request as the server sees it: its Range and If-Range
// headers ("" when absent) and the byte range they ask for.
type specReq struct {
	rng, ifRange string
	off, end     int64 // end is exclusive, -1 for an open or absent Range
}

// span is the part of the artifact q asks for.
func (q specReq) span() (lo, hi int64) {
	if q.end < 0 {
		return q.off, specLen
	}
	return q.off, q.end
}

// reply is one server answer by meaning: the scripted transport renders
// it as an *http.Response, and the model reads it directly.
type reply struct {
	status     int // 0: the transport fails, no response at all
	etag       string
	retryAfter string        // the Retry-After header, as sent
	after      time.Duration // the sleep it asks for; 0 leaves the client's backoff
	body       []byte
	cut        int    // the connection dies after this many body bytes; -1 ends cleanly
	length     int64  // a 200's Content-Length; -1 declares none
	crange     string // a 206's Content-Range header, as sent
	start      int64  // where that header says the body starts; -1 when it does not parse
	total      int64  // and the total it names
}

// answer is one letter of the spec's alphabet: a scripted reply to
// whatever the client asked.
type answer struct {
	name  string
	reply func(specReq) reply
}

func (a answer) String() string { return a.name }

// correct answers as a correct server of A: a 206 of the range asked
// for, unless there is no Range or If-Range names another artifact.
func correct(q specReq) reply {
	if q.rng == "" || (q.ifRange != "" && q.ifRange != specETagA) {
		return whole(specETagA, specA, specLen)(q)
	}
	return part(specETagA, specA)(q)
}

func whole(etag string, art []byte, length int64) func(specReq) reply {
	return func(specReq) reply {
		return reply{status: http.StatusOK, etag: etag, body: art, cut: -1, length: length}
	}
}

func part(etag string, art []byte) func(specReq) reply {
	return func(q specReq) reply {
		lo, hi := q.span()
		return reply{status: http.StatusPartialContent, etag: etag, body: art[lo:hi], cut: -1,
			crange: fmt.Sprintf("bytes %d-%d/%d", lo, hi-1, specLen), start: lo, total: specLen}
	}
}

// badRange is a 206 whose Content-Range is missing or does not parse,
// carrying the bytes from offset 0 rather than the ones asked for.
func badRange(name, header string) answer {
	return answer{name, func(q specReq) reply {
		lo, hi := q.span()
		return reply{status: http.StatusPartialContent, etag: specETagA, body: specA[:hi-lo], cut: -1,
			crange: header, start: -1}
	}}
}

// cutAfter is the correct answer, with the connection dying after k(n)
// of its n body bytes.
func cutAfter(name string, k func(n int) int) answer {
	return answer{name, func(q specReq) reply {
		r := correct(q)
		if r.cut = k(len(r.body)); r.cut >= len(r.body) {
			r.cut = -1 // nothing left to cut
		}
		return r
	}}
}

func status(name string, code int, retryAfter string, after time.Duration) answer {
	return answer{name, func(specReq) reply {
		return reply{status: code, retryAfter: retryAfter, after: after, cut: -1}
	}}
}

var (
	ok200      = answer{"200", whole(specETagA, specA, specLen)}
	new200     = answer{"200-new", whole(specETagB, specB, specLen)}
	noETag200  = answer{"200-noetag", whole("", specA, specLen)}
	noLen200   = answer{"200-nolen", whole(specETagA, specA, -1)} // ignores Range, declares no length
	ok206      = answer{"206", part(specETagA, specA)}
	new206     = answer{"206-new", part(specETagB, specB)}
	noRange206 = badRange("206-norange", "")
	junk206    = badRange("206-garbage", "garbage")
	wrongStart = answer{"206-wrongstart", func(q specReq) reply {
		lo, hi := q.span()
		return reply{status: http.StatusPartialContent, etag: specETagA, body: specA[lo+1 : hi], cut: -1,
			crange: fmt.Sprintf("bytes %d-%d/%d", lo+1, hi-1, specLen), start: lo + 1, total: specLen}
	}}
	cut0    = cutAfter("cut0", func(int) int { return 0 })
	cut1    = cutAfter("cut1", func(int) int { return 1 })
	cutHalf = cutAfter("cuthalf", func(n int) int { return n / 2 })
	corrupt = answer{"corrupt", func(q specReq) reply {
		r := correct(q)
		r.body = append([]byte(nil), r.body...)
		r.body[len(r.body)/2] ^= 0x5a
		return r
	}}
	shed503 = status("503", http.StatusServiceUnavailable, "7", 7*time.Second)
	// An HTTP-date an hour ahead: the client clamps it to maxRetryAfter,
	// which keeps the expected sleep exact whatever the clock says.
	shedDate503 = status("503-date", http.StatusServiceUnavailable,
		time.Now().Add(time.Hour).UTC().Format(http.TimeFormat), maxRetryAfter)
	bare503  = status("503-bare", http.StatusServiceUnavailable, "", 0)
	shed429  = status("429", http.StatusTooManyRequests, "", 0)
	gone404  = status("404", http.StatusNotFound, "", 0)
	range416 = status("416", http.StatusRequestedRangeNotSatisfiable, "", 0)
	netErr   = status("neterr", 0, "", 0)
)

// specAlphabet is every answer TestFetchSpec scripts.
var specAlphabet = []answer{
	ok200, new200, noETag200, noLen200,
	ok206, new206, noRange206, junk206, wrongStart,
	cut0, cut1, cutHalf, corrupt,
	shed503, shedDate503, bare503, shed429, gone404, range416, netErr,
}

// specServer hands out a script's answers in order, then correct ones.
type specServer struct{ script []answer }

func (s *specServer) next(q specReq) reply {
	if len(s.script) == 0 {
		return correct(q)
	}
	a := s.script[0]
	s.script = s.script[1:]
	return a.reply(q)
}

// specTransport is the scripted http.RoundTripper the real client talks
// to: it records each request and renders the next reply.
type specTransport struct {
	specServer
	reqs []specReq
}

func (t *specTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	q := specReq{rng: req.Header.Get("Range"), ifRange: req.Header.Get("If-Range"), end: -1}
	if spec, ok := strings.CutPrefix(q.rng, "bytes="); ok {
		from, to, _ := strings.Cut(spec, "-")
		q.off, _ = strconv.ParseInt(from, 10, 64)
		if to != "" {
			last, _ := strconv.ParseInt(to, 10, 64)
			q.end = last + 1
		}
	}
	t.reqs = append(t.reqs, q)
	r := t.next(q)
	if r.status == 0 {
		return nil, errors.New("spec: scripted transport failure")
	}
	h := http.Header{}
	for k, v := range map[string]string{"ETag": r.etag, "Retry-After": r.retryAfter, "Content-Range": r.crange} {
		if v != "" {
			h.Set(k, v)
		}
	}
	body := &cutBody{b: r.body, end: io.EOF}
	if r.cut >= 0 {
		body = &cutBody{b: r.body[:r.cut], end: errors.New("spec: connection reset")}
	}
	length := int64(-1)
	if r.status == http.StatusOK {
		length = r.length
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", r.status, http.StatusText(r.status)),
		StatusCode:    r.status,
		Header:        h,
		ContentLength: length,
		Body:          body,
		Request:       req,
	}, nil
}

// cutBody delivers b and then ends with end: io.EOF for a clean end, or
// the error of a connection that died.
type cutBody struct {
	b   []byte
	end error
}

func (c *cutBody) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, c.end
	}
	n := copy(p, c.b)
	c.b = c.b[n:]
	return n, nil
}

func (c *cutBody) Close() error { return nil }

// specErr is an operation's error class: what the spec predicts.
type specErr int

const (
	errNil       specErr = iota
	errChanged           // ErrArtifactChanged
	errIntegrity         // ErrStreamIntegrity
	errFailed            // ErrFetchFailed
	errOther             // none of the above: never predicted
)

func (e specErr) String() string {
	return [...]string{"nil", "ErrArtifactChanged", "ErrStreamIntegrity", "ErrFetchFailed", "other"}[e]
}

func classify(err error) specErr {
	switch {
	case err == nil:
		return errNil
	case errors.Is(err, ErrArtifactChanged):
		return errChanged
	case errors.Is(err, ErrStreamIntegrity):
		return errIntegrity
	case errors.Is(err, ErrFetchFailed):
		return errFailed
	}
	return errOther
}

// specEvent is one transfer event, without its name and timestamp.
type specEvent struct {
	kind  obs.Kind
	bytes int64
	dur   time.Duration
}

// outcome is everything TestFetchSpec compares.
type outcome struct {
	reqs     []specReq
	data     []byte // bytes delivered by Fetch; the payload FetchRangeVerified returned
	attempts int    // FetchRangeVerified's whole-range attempts
	err      specErr
	stats    FetchStats
	sleeps   []time.Duration
	events   []specEvent
}

// specOp is the operation a sequence drives.
type specOp int

const (
	opFetch specOp = iota // Fetch of the whole artifact
	opRange               // FetchRangeVerified of [specFrom, specFrom+specRange)
)

func (op specOp) String() string { return [...]string{"Fetch", "FetchRangeVerified"}[op] }

// runClient drives the real client through script.
func runClient(op specOp, retries int, script []answer) outcome {
	t := &specTransport{specServer: specServer{script: script}}
	rec := obs.NewRecorder(32)
	var o outcome
	c := &FetchClient{
		HTTP:       &http.Client{Transport: t},
		MaxRetries: retries,
		JitterSeed: specSeed,
		Obs:        rec,
		sleep: func(_ context.Context, d time.Duration) error {
			o.sleeps = append(o.sleeps, d)
			return nil
		},
	}
	var err error
	switch op {
	case opFetch:
		var buf bytes.Buffer
		_, err = c.Fetch(context.Background(), specURL, &buf)
		if buf.Len() > 0 {
			o.data = buf.Bytes()
		}
	case opRange:
		o.data, o.attempts, err = c.FetchRangeVerified(context.Background(), specURL, specFrom, specRange, specCRC)
	}
	o.err, o.reqs, o.stats = classify(err), t.reqs, c.Stats()
	for _, e := range rec.Events() {
		o.events = append(o.events, specEvent{e.Kind, e.Bytes, e.Dur})
	}
	return o
}

// fetchModel is the spec. Its outcome is what the client must observably
// do; backoff is a client of the same seed and shape, asked for the
// backoff schedule in the order the model retries.
type fetchModel struct {
	specServer
	retries int
	backoff *FetchClient
	outcome
}

// transfer is the model of one resumeReader: its position, the pinned
// ETag, and the failures charged to its budget since it last made
// progress.
type transfer struct {
	start, off, end, total int64
	etag                   string
	fails                  int
	got                    []byte
}

// cause is why an attempt failed, as far as the retry decision cares.
type cause struct {
	changed, permanent, integrity bool
	after                         time.Duration
}

func (m *fetchModel) event(k obs.Kind, bytes int64, dur time.Duration) {
	m.events = append(m.events, specEvent{k, bytes, dur})
}

// retry is the one retry decision: a changed artifact and a permanent
// failure end the operation, and every other failure is charged to the
// budget fails counts, which allows MaxRetries retries after the first
// attempt; each retry sleeps for the server's hint or the backoff
// schedule. It returns errNil when the operation goes on.
func (m *fetchModel) retry(fails *int, c cause) specErr {
	switch {
	case c.changed:
		return errChanged
	case c.permanent:
		return errFailed
	}
	if *fails++; *fails > m.retries {
		if c.integrity {
			return errIntegrity
		}
		return errFailed
	}
	m.stats.Retries++
	d := m.backoff.backoff(*fails)
	if c.after > 0 {
		d = c.after
	}
	m.sleeps = append(m.sleeps, d)
	m.event(obs.Retry, 0, d)
	return errNil
}

// run moves x from its current offset to its end, connection by
// connection, or to a terminal error.
func (m *fetchModel) run(x *transfer) specErr {
	var why *cause
	for {
		if why != nil {
			if e := m.retry(&x.fails, *why); e != errNil {
				return e
			}
		}
		q := specReq{off: x.off, end: x.end}
		if x.off > 0 || x.end >= 0 {
			// A resume, or a range, asks for the rest of its bytes, and
			// only from the artifact it pinned.
			q.rng, q.ifRange = fmt.Sprintf("bytes=%d-", x.off), x.etag
			if x.end >= 0 {
				q.rng += strconv.FormatInt(x.end-1, 10)
			}
		}
		m.reqs = append(m.reqs, q)
		m.stats.Requests++
		body, clean, c := x.admit(m.next(q))
		if why = c; why != nil {
			continue
		}
		if x.off > x.start {
			m.stats.Resumes++
			m.event(obs.Resume, x.off, 0)
		}
		n := int64(len(body))
		if x.end >= 0 {
			n = min(n, x.end-x.off)
		}
		x.got = append(x.got, body[:n]...)
		x.off += n
		m.stats.BytesTransferred += n
		if n > 0 {
			x.fails = 0 // progress: the budget is for consecutive failures
		}
		done := (x.end >= 0 && x.off >= x.end) || (x.total >= 0 && x.off >= x.total)
		if done || (clean && x.end < 0 && x.total < 0) {
			return errNil // every byte, or an end nothing contradicts
		}
		why = &cause{} // dropped, or ended short of the length it promised
	}
}

// admit is whether reply r continues x at its offset, and if so the
// bytes the connection will deliver from there and whether it then ends
// cleanly. Either way it pins the artifact a reply first names.
func (x *transfer) admit(r reply) (body []byte, clean bool, why *cause) {
	partial := r.status == http.StatusPartialContent
	switch {
	case r.status == 0:
		return nil, false, &cause{}
	case !partial && r.status != http.StatusOK:
		client := r.status >= 400 && r.status < 500 && r.status != http.StatusTooManyRequests
		return nil, false, &cause{permanent: client, after: r.after}
	}
	if r.etag != "" && r.etag != x.etag {
		// Another artifact: adopting it is safe only for a whole body
		// before anything was delivered; otherwise it would splice.
		if x.etag != "" && (partial || x.off > x.start) {
			return nil, false, &cause{changed: true}
		}
		x.etag = r.etag
	}
	body, clean = r.body, r.cut < 0
	if !clean {
		body = body[:r.cut]
	}
	skip, total := x.off, r.length
	if partial {
		if r.start != x.off {
			return nil, false, &cause{} // no proof the bytes start where we are
		}
		skip, total = 0, r.total
	}
	if total >= 0 {
		x.total = total
	}
	if int64(len(body)) < skip {
		return nil, false, &cause{} // died before reaching our offset
	}
	return body[skip:], clean, nil
}

// model predicts the outcome of op under script.
func model(op specOp, retries int, script []answer) outcome {
	m := &fetchModel{
		specServer: specServer{script: script},
		retries:    retries,
		backoff:    &FetchClient{JitterSeed: specSeed},
	}
	switch op {
	case opFetch:
		x := &transfer{end: -1, total: -1}
		m.err = m.run(x)
		m.data = x.got
	case opRange:
		m.data, m.attempts, m.err = m.fetchRange()
	}
	return m.outcome
}

// fetchRange models FetchRangeVerified: a range is delivered only once
// it verifies. A range that does not verify, or whose artifact changed
// under it, is thrown away and refetched from its start with nothing
// pinned, on a budget of its own that allows MaxRetries+1 attempts. (The
// client before this spec allowed MaxRetries attempts here; that
// off-by-one is the only way it diverges from this model.)
func (m *fetchModel) fetchRange() ([]byte, int, specErr) {
	for fails := 0; ; {
		x := &transfer{start: specFrom, off: specFrom, end: specFrom + specRange, total: -1}
		why := cause{integrity: true}
		switch e := m.run(x); {
		case e == errNil && ChecksumPayload(x.got) == specCRC:
			return x.got, fails + 1, errNil
		case e == errNil:
			m.event(obs.CRCFail, specRange, 0)
		case e != errChanged:
			return nil, fails + 1, e
		}
		if e := m.retry(&fails, why); e != errNil {
			return nil, fails, e
		}
	}
}

// specCheck runs op under script on the model and on the client, fails
// t unless they agree on everything, and returns the agreed outcome.
func specCheck(t *testing.T, op specOp, retries int, script ...answer) outcome {
	t.Helper()
	want, got := model(op, retries, script), runClient(op, retries, script)
	if d := specDiff(got, want); d != "" {
		t.Fatalf("%s %v (MaxRetries %d): %s", op, script, retries, d)
	}
	return got
}

// specDiff names the first observable on which got departs from want.
func specDiff(got, want outcome) string {
	for _, f := range []struct {
		name     string
		got, wnt any
	}{
		{"requests", got.reqs, want.reqs},
		{"error class", got.err, want.err},
		{"attempts", got.attempts, want.attempts},
		{"stats", got.stats, want.stats},
		{"sleeps", got.sleeps, want.sleeps},
		{"events", got.events, want.events},
	} {
		if !reflect.DeepEqual(f.got, f.wnt) {
			return fmt.Sprintf("%s = %+v, spec says %+v", f.name, f.got, f.wnt)
		}
	}
	if !bytes.Equal(got.data, want.data) || (got.data == nil) != (want.data == nil) {
		return fmt.Sprintf("delivered %x, spec says %x", got.data, want.data)
	}
	return ""
}

// TestFetchSpec is the exhaustive gate: every sequence of up to three
// answers (two under -short), for both operations, with zero divergence
// between the client and the model. Shorter sequences run first, so a
// divergence is reported on a shortest sequence that shows it.
func TestFetchSpec(t *testing.T) {
	depth := 3
	if testing.Short() {
		depth = 2
	}
	n := 0
	for length := 0; length <= depth; length++ {
		script := make([]answer, length)
		var fill func(i int)
		fill = func(i int) {
			if i == length {
				for _, op := range []specOp{opFetch, opRange} {
					specCheck(t, op, specRetries, script...)
					n++
				}
				return
			}
			for _, a := range specAlphabet {
				script[i] = a
				fill(i + 1)
			}
		}
		fill(0)
	}
	t.Logf("fetch spec: %d answer sequences over %d answers, zero divergence", n, len(specAlphabet))
}

// TestFetchRejects206WithoutContentRange: a 206 whose
// Content-Range is missing or garbage proves nothing about where its
// body starts, so it is a retryable failure, never spliced in blind —
// and a server that only ever sends one spends the budget.
func TestFetchRejects206WithoutContentRange(t *testing.T) {
	want := specA[specFrom : specFrom+specRange]
	for _, header := range []string{"", "garbage", "bytes x-y/z", "bytes 999"} {
		t.Run("header="+header, func(t *testing.T) {
			bad := badRange("206-bad", header)
			if o := specCheck(t, opRange, specRetries, bad); o.err != errNil || !bytes.Equal(o.data, want) || o.stats.Retries != 1 {
				t.Fatalf("one bad 206 then a good one: %+v", o)
			}
			o := specCheck(t, opRange, specRetries, bad, bad, bad)
			if o.err != errFailed || o.data != nil || len(o.reqs) != specRetries+1 || o.stats.BytesTransferred != 0 {
				t.Fatalf("only bad 206s: %+v, want ErrFetchFailed after %d requests and no bytes", o, specRetries+1)
			}
		})
	}
}

// TestFetchRangeVerifiedRestartsFromVerifiedByte: a range
// assembled across a reconnect from a clean prefix and a corrupted rest
// completes without a transport error, but it must not be returned, and
// it must not be resumed from the received byte: it restarts from the
// last verified one, the range start, with nothing pinned.
func TestFetchRangeVerifiedRestartsFromVerifiedByte(t *testing.T) {
	o := specCheck(t, opRange, specRetries, cutHalf, corrupt)
	if o.err != errNil || !bytes.Equal(o.data, specA[specFrom:specFrom+specRange]) || o.attempts != 2 {
		t.Fatalf("outcome %+v, want the verified range on the second attempt", o)
	}
	if len(o.reqs) != 3 || o.reqs[2] != (specReq{rng: o.reqs[0].rng, off: specFrom, end: specFrom + specRange}) {
		t.Fatalf("requests %+v: the third must restart at the range start without If-Range", o.reqs)
	}
	if len(o.sleeps) != 2 {
		t.Fatalf("sleeps %v: the drop and the restart each back off", o.sleeps)
	}
}

// TestFetchRangeVerifiedExhaustsBudget: a range that never verifies
// fails with ErrStreamIntegrity after MaxRetries+1 whole-range attempts,
// never returning garbage. That is one attempt more than the client
// once allowed, so a range that verifies on attempt MaxRetries+1 now
// succeeds.
func TestFetchRangeVerifiedExhaustsBudget(t *testing.T) {
	const retries = 3
	o := specCheck(t, opRange, retries, corrupt, corrupt, corrupt, corrupt)
	if o.err != errIntegrity || o.data != nil || o.attempts != retries+1 {
		t.Fatalf("outcome %+v, want ErrStreamIntegrity after %d attempts", o, retries+1)
	}
	o = specCheck(t, opRange, retries, corrupt, corrupt, corrupt)
	if o.err != errNil || o.attempts != retries+1 {
		t.Fatalf("outcome %+v, want the range verified on attempt %d", o, retries+1)
	}
}

// TestFetchRefusesSpliceAfterSwap: the artifact is replaced
// between a mid-stream drop and the resume. The If-Range resume gets a
// full 200 of the new artifact, and the client, having delivered bytes
// of the old one, fails with ErrArtifactChanged rather than splice.
func TestFetchRefusesSpliceAfterSwap(t *testing.T) {
	o := specCheck(t, opFetch, specRetries, cutHalf, new200)
	if o.err != errChanged || !bytes.Equal(o.data, specA[:specLen/2]) {
		t.Fatalf("outcome %+v, want ErrArtifactChanged after a clean prefix of A", o)
	}
	if o.reqs[1].ifRange != specETagA {
		t.Fatalf("resume %+v is not pinned to A with If-Range", o.reqs[1])
	}
}

// TestFetchAdoptsSwapBeforeFirstByte: a replacement seen before any
// byte was delivered splices nothing, so the client adopts it.
func TestFetchAdoptsSwapBeforeFirstByte(t *testing.T) {
	if o := specCheck(t, opFetch, specRetries, cut0, new200); o.err != errNil || !bytes.Equal(o.data, specB) {
		t.Fatalf("outcome %+v, want the new artifact whole", o)
	}
}

// TestFetchRangeVerifiedSurvivesSwap: a range fetch interrupted by a
// replacement restarts the whole range with a fresh pin and verifies.
func TestFetchRangeVerifiedSurvivesSwap(t *testing.T) {
	o := specCheck(t, opRange, specRetries, cutHalf, new200)
	if o.err != errNil || o.attempts != 2 || len(o.reqs) != 3 || o.reqs[2].ifRange != "" {
		t.Fatalf("outcome %+v, want a verified range on a second, unpinned attempt", o)
	}
}

// TestFetchHonorsRetryAfter: a shedding server's delta-seconds
// Retry-After replaces the computed backoff.
func TestFetchHonorsRetryAfter(t *testing.T) {
	if o := specCheck(t, opFetch, specRetries, shed503); o.err != errNil || !reflect.DeepEqual(o.sleeps, []time.Duration{7 * time.Second}) {
		t.Fatalf("outcome %+v, want one 7s sleep", o)
	}
}

// TestFetchHonorsRetryAfterDate: the HTTP-date form is honoured
// like delta-seconds; it used to be ignored, and the client hammered the
// shedding server on its millisecond backoff.
func TestFetchHonorsRetryAfterDate(t *testing.T) {
	if o := specCheck(t, opFetch, specRetries, shedDate503); o.err != errNil || !reflect.DeepEqual(o.sleeps, []time.Duration{maxRetryAfter}) {
		t.Fatalf("outcome %+v, want one sleep of the clamped date", o)
	}
}

// TestUnrepairableUnitCostsOneBudget pins the worst case of the repair
// path: a corrupt unit behind a loader whose hook is FetchRangeVerified,
// against a server that only sheds, costs MaxRetries+1 requests and
// MaxRetries sleeps, and then ends the load. The hook owns retrying, so
// the loader asks it once; the loader that re-asked made three times
// the requests and slept longer than the gate's deadline.
func TestUnrepairableUnitCostsOneBudget(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	shedding := make([]answer, 4*defaultMaxRetries)
	for i := range shedding {
		shedding[i] = bare503
	}
	tr := &specTransport{specServer: specServer{script: shedding}}
	var slept []time.Duration
	c := &FetchClient{
		HTTP: &http.Client{Transport: tr},
		sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	l := NewLoader(rp.Name, rp.MainClass, nil)
	calls := 0
	l.Repair = func(req RepairRequest) ([]byte, error) {
		calls++
		p, _, err := c.FetchRangeVerified(context.Background(), specURL, 0, int64(req.Len), req.CRC)
		return p, err
	}
	if err := l.Load(bytes.NewReader(corruptUnit(t, buf.Bytes(), 1)), nil); !errors.Is(err, ErrStreamIntegrity) || !errors.Is(err, ErrFetchFailed) {
		t.Fatalf("Load = %v, want ErrStreamIntegrity wrapping the fetch failure", err)
	}
	if calls != 1 || len(tr.reqs) != defaultMaxRetries+1 || len(slept) != defaultMaxRetries {
		t.Fatalf("%d hook calls, %d requests, %d sleeps; want 1, %d, %d",
			calls, len(tr.reqs), len(slept), defaultMaxRetries+1, defaultMaxRetries)
	}
	if st := l.Integrity(); st.CorruptUnits != 1 || st.Repaired != 0 {
		t.Fatalf("integrity %+v, want one corrupt unit, not repaired", st)
	}
}

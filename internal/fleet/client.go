package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"nonstrict/internal/live"
	"nonstrict/internal/stream"
	"nonstrict/internal/xrand"
)

// client is one simulated mobile user: the shipping client session
// (live.Session) over a shaped in-process connection, with the app's
// need trace replayed through the session's gate where the VM would be.
type client struct {
	id    int
	seed  uint64
	cfg   *Config
	link  stream.LinkClass
	model *appModel
	dial  func(context.Context) (net.Conn, error)
}

// clientResult is what one client contributes to the aggregate.
type clientResult struct {
	failed bool
	err    error

	needs, mispredicts, demands int64
	streamBytes, demandBytes    int64
	corruptUnits, repaired      int64
	fetch                       stream.FetchStats
	firstInvocation             time.Duration
	overlap                     float64
}

// run executes the client's whole session. Every error path degrades to
// a counted failure — one wedged client must never take the fleet down.
func (c *client) run(ctx context.Context) *clientResult {
	fail := func(err error) *clientResult {
		return &clientResult{failed: true, err: fmt.Errorf("fleet client %d: %w", c.id, err)}
	}

	// One transport per client: its connections are shaped with the
	// client's private seed stream, and reusing a kept-alive connection
	// models a persistent session (the RTT is paid per connection, not
	// per request).
	connSeeds := xrand.New(c.seed ^ 0xC0)
	var seedMu sync.Mutex
	tr := &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			conn, err := c.dial(ctx)
			if err != nil {
				return nil, err
			}
			seedMu.Lock()
			s := connSeeds.Uint64()
			seedMu.Unlock()
			return c.link.Shape(conn, s, c.cfg.TimeScale), nil
		},
		MaxIdleConnsPerHost: 2,
	}
	defer tr.CloseIdleConnections()

	// The session opens like a real one: unit table first, then the
	// interleaved stream. The client's clock starts before both.
	base := "http://fleet/apps/" + c.model.name
	start := time.Now()
	s, err := live.Open(ctx, live.Options{
		URL:         base + "/app",
		TOCURL:      base + "/app.toc",
		Name:        c.model.name,
		MainClass:   c.model.mainClass,
		Client:      &stream.FetchClient{HTTP: &http.Client{Transport: tr}, JitterSeed: c.seed ^ 0xF7},
		GateTimeout: c.cfg.GateTimeout,
	}, nil)
	if err != nil {
		return fail(err)
	}

	// Replay the need trace: each need crosses the gate the VM's first
	// invocation would, then "executes" for a seeded think time.
	think := xrand.New(c.seed ^ 0x7E)
	var first time.Duration
	for _, ref := range c.model.needs {
		if err := s.AwaitMethod(ref); err != nil {
			s.Close() // the gate's error is the session's
			return fail(err)
		}
		if first == 0 {
			first = time.Since(start)
		}
		sleepScaled(ctx, thinkTime(think, c.cfg.ThinkMean), c.cfg.TimeScale)
	}
	st, err := s.Close()
	if err == nil {
		err = ctx.Err() // a canceled fleet's truncated sessions are not results
	}
	if err != nil {
		return fail(err)
	}
	return &clientResult{
		needs:           int64(len(st.Waits)),
		mispredicts:     int64(st.Mispredicts),
		demands:         int64(st.DemandFetches),
		streamBytes:     st.StreamBytes,
		demandBytes:     st.DemandBytes,
		corruptUnits:    st.Integrity.CorruptUnits,
		repaired:        st.Integrity.Repaired,
		fetch:           st.Transfer,
		firstInvocation: first,
		overlap:         st.Overlap(),
	}
}

// thinkTime draws one simulated execute interval from [mean/2, 3·mean/2).
func thinkTime(r *xrand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return mean/2 + time.Duration(r.Intn(int(mean)))
}

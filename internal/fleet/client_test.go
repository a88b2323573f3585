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
	cfg   *config
	link  stream.LinkClass
	model *appModel
	dial  func(context.Context) (net.Conn, error)
}

// run executes the client's whole session. Every error path ends in
// the client's own result — one wedged client must never take the fleet
// down.
func (c *client) run(ctx context.Context) clientResult {
	res := clientResult{App: c.model.name, Link: c.link.Name}

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

	// The session opens like a real one: the interleaved stream with the
	// unit table beside it.
	base := "http://fleet/apps/" + c.model.name
	s, err := live.Open(ctx, live.Options{
		URL:       base + "/app",
		TOCURL:    base + "/app.toc",
		Name:      c.model.name,
		MainClass: c.model.mainClass,
		Client:    &stream.FetchClient{HTTP: &http.Client{Transport: tr}, JitterSeed: c.seed ^ 0xF7},
	}, nil)
	if err != nil {
		res.Err = fmt.Errorf("fleet client %d: %w", c.id, err)
		return res
	}

	// Replay the need trace: each need crosses the gate the VM's first
	// invocation would, then "executes" for a seeded think time.
	think := xrand.New(c.seed ^ 0x7E)
	for _, ref := range c.model.needs {
		if err = s.AwaitMethod(ref); err != nil {
			break
		}
		sleepScaled(ctx, thinkTime(think, c.cfg.ThinkMean), c.cfg.TimeScale)
	}
	st, cerr := s.Close()
	if err == nil {
		err = cerr
	}
	if err == nil {
		err = ctx.Err() // a canceled fleet's truncated sessions are not results
	}
	if err != nil {
		res.Err = fmt.Errorf("fleet client %d: %w", c.id, err)
	}
	res.Stats = st
	return res
}

// thinkTime draws one simulated execute interval from [mean/2, 3·mean/2).
func thinkTime(r *xrand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return mean/2 + time.Duration(r.Intn(int(mean)))
}

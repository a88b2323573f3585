package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/classfile"
	"nonstrict/internal/live"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
	"nonstrict/internal/xrand"
)

var liveAlias = map[string]string{
	"first_ms.p50": "first_invocation_ms.p50: per pass, sum over the six sessions of live.Run call to entry method past its gate",
	"total_ms.p50": "session_ms.p50: per pass, sum of the six live.Run wall times",
	"part_ms.p50":  "remote_exec_ms.p50: per pass, sum of the six live.Stats.ExecDone",
	"ops_per_s":    "passes of six sessions per second",
}

// liveFixture is one warm train-order server on loopback TCP, the
// link every client connection is shaped with (nil = unshaped LAN) and
// how many clients run sessions side by side.
type liveFixture struct {
	name    string
	srv     *server.Server
	warm    server.CacheStats // the server's counters once set up
	ln      *listener
	link    *stream.LinkClass
	clients int

	// Summed over every session of the run, for the live and stream
	// client rows of the layer table.
	mu                             sync.Mutex
	sessions                       int
	prelude, stall, transfer, gate time.Duration
	repair, drain                  time.Duration
	demands, mispredicts           int
	overlap                        float64
	requests, retries, resumes     int64
}

func setupLive(name string, link *stream.LinkClass, clients int) func(e *env) (fixture, error) {
	return func(e *env) (fixture, error) {
		srv, ln, err := warmServer(e)
		if err != nil {
			return nil, err
		}
		return &liveFixture{name: name, srv: srv, warm: srv.CacheStats(), ln: ln, link: link, clients: clients}, nil
	}
}

// warmServer is one train-order server with every app resident,
// listening on loopback.
func warmServer(e *env) (*server.Server, *listener, error) {
	srv, err := server.New(server.Config{Order: server.OrderTrain})
	if err != nil {
		return nil, nil, err
	}
	for _, a := range e.apps {
		if _, err := srv.Warm(context.Background(), a.Name); err != nil {
			return nil, nil, err
		}
	}
	ln, err := listen(srv.Handler())
	if err != nil {
		return nil, nil, err
	}
	return srv, ln, nil
}

func (f *liveFixture) close() { f.ln.close() }

func (f *liveFixture) measure(e *env, p *phase, deadline time.Time, sp spanRef) {
	workers(f.clients, p, func(w int, q *phase) {
		// Connection seeds come from the run seed alone, so the same seed
		// shapes the same links whatever else the process has done.
		seeds := xrand.New(e.seed ^ 0x6c697665 + uint64(w))
		lane := sp.onLane(w + 1)
		for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
			var first, wall, exec time.Duration
			for _, a := range e.apps {
				req := fmt.Sprintf("%s/%s/%d.%d", f.name, a.Name, w, pass)
				s := f.session(e, a, seeds, q, lane.begin("live.session", req), req)
				first += s.first
				wall += s.wall
				exec += s.exec
			}
			q.first = append(q.first, ms(first))
			q.total = append(q.total, ms(wall))
			q.part = append(q.part, ms(exec))
			q.ops++
		}
	})
}

type sessionTimes struct{ first, exec, wall time.Duration }

// session is one mobile-code client: a fresh fetch client and
// transport, the unit table, then execution overlapped with transfer.
// The first-invocation clock is the benchmark's own — it starts before
// live.Run connects and fetches the unit table, which the program's
// FirstRunnable leaves out.
func (f *liveFixture) session(e *env, a *apps.App, seeds *xrand.Rand, p *phase, sp spanRef, req string) sessionTimes {
	defer sp.end()
	var mu sync.Mutex // demand fetches dial from their own goroutines
	dialer := &net.Dialer{}
	scale := 1.0
	if e.quick {
		scale = 50 // a smoke run checks the path, not the link's real delays
	}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil || f.link == nil {
				return conn, err
			}
			mu.Lock()
			seed := seeds.Uint64()
			mu.Unlock()
			return f.link.Shape(conn, seed, scale), nil
		},
	}
	defer tr.CloseIdleConnections()
	client := &stream.FetchClient{HTTP: &http.Client{Transport: tr}}

	url := f.ln.url + "/apps/" + a.Name + "/app"
	var first time.Duration
	t0 := time.Now()
	m, st, err := live.Run(context.Background(), live.Options{
		URL:       url,
		TOCURL:    url + ".toc",
		Name:      a.Name,
		MainClass: a.IR.Main,
		Client:    client,
		Run: vm.Options{
			Args: a.Args(false),
			// Runs on the execution goroutine; the entry method is the
			// first method the VM uses.
			OnFirstUse: func(classfile.Ref) {
				if first == 0 {
					first = time.Since(t0)
				}
			},
		},
	})
	wall := time.Since(t0)
	if !p.check(err == nil, "%s: live.Run: %v", req, err) {
		return sessionTimes{wall: wall}
	}
	err = a.Check(m, false)
	p.check(err == nil, "%s: self-check: %v", req, err)
	p.check(st.Degraded == "" && first > 0, "%s: degraded %q, first invocation %v", req, st.Degraded, first)

	// What the program's own clock leaves out before it starts (the
	// unit-table fetch) and after execution ends (the stream's tail).
	// The two clocks are read microseconds apart, so clamp.
	prelude := max(first-st.FirstRunnable, 0)
	drain := max(wall-prelude-st.ExecDone, 0)
	run, end := t0.Add(prelude), t0.Add(wall)
	sp.add("live.toc_prelude", req, t0, run)
	sp.add("live.execute", req, run, end.Add(-drain))
	sp.add("live.drain", req, end.Add(-drain), end)

	f.mu.Lock()
	defer f.mu.Unlock()
	f.sessions++
	f.prelude += prelude
	f.drain += drain
	f.stall += st.StallTime
	for _, w := range st.Waits {
		f.transfer += w.Transfer
		f.gate += w.Gate
		f.repair += w.Repair
	}
	f.demands += st.DemandFetches
	f.mispredicts += st.Mispredicts
	f.overlap += st.Overlap()
	f.requests += st.Transfer.Requests
	f.retries += st.Transfer.Retries
	f.resumes += st.Transfer.Resumes
	return sessionTimes{first: first, exec: st.ExecDone, wall: wall}
}

func (f *liveFixture) finish(p *phase, c map[string]float64) {
	ops := p.ops
	cs := f.srv.CacheStats()
	p.check(cs.Builds == f.warm.Builds && cs.Shed == 0, "warm server ran %d builds and shed %d", cs.Builds-f.warm.Builds, cs.Shed)
	perOp := func(d time.Duration) float64 { return ms(d) / float64(ops) }
	c["live.toc_prelude_ms"] = perOp(f.prelude)
	c["live.stall_ms"] = perOp(f.stall)
	c["live.transfer_wait_ms"] = perOp(f.transfer)
	c["live.gate_wait_ms"] = perOp(f.gate)
	c["live.repair_wait_ms"] = perOp(f.repair)
	c["live.drain_ms"] = perOp(f.drain)
	c["live.demand_fetches"] = float64(f.demands) / float64(ops)
	c["live.mispredicts"] = float64(f.mispredicts) / float64(ops)
	c["live.overlap"] = f.overlap / float64(f.sessions)
	c["stream.requests_per_session"] = float64(f.requests) / float64(f.sessions)
	c["stream.retries"] = float64(f.retries) / float64(ops)
	c["stream.resumes"] = float64(f.resumes) / float64(ops)
	serverCounters(c, cs, f.warm, ops)
}

// serverCounters reports what one server's cache counted since base,
// per op.
func serverCounters(c map[string]float64, cs, base server.CacheStats, ops int) {
	c["server.builds"] += float64(cs.Builds-base.Builds) / float64(ops)
	c["server.cache_hits"] += float64(cs.Hits-base.Hits) / float64(ops)
	c["server.store_hits"] += float64(cs.StoreHits-base.StoreHits) / float64(ops)
	c["server.shed"] += float64(cs.Shed-base.Shed) / float64(ops)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

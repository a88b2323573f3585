package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// cmdServe runs the multi-tenant non-strict code server: every
// registered benchmark is published as an interleaved virtual file under
// /apps/{name}/app (unit table at /apps/{name}/app.toc), restructured
// into the chosen first-use order, with the named benchmark prebuilt and
// aliased at /app and /app.toc for single-tenant clients. The expensive
// build pipeline runs once per app behind a content-addressed artifact
// cache (see internal/server); the chaos flags inject a deterministic,
// seeded fault schedule around every request — cache hits included —
// and /metrics exposes Prometheus counters for traffic, faults, and the
// cache. This command is a flag-parsing shell: all serving logic lives
// in internal/server.
func cmdServe(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	rate := fs.Int("rate", 0, "throttle to N bytes/second (0 = unthrottled)")
	order := fs.String("order", server.OrderStatic, "restructuring policy: scg, train, test")
	cacheBytes := fs.Int64("cache-bytes", 0, "artifact cache byte budget (0 = 64 MiB)")
	storeDir := fs.String("store-dir", "", "persistent artifact store directory (empty = memory only; restarts rebuild)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "how long to let in-flight streams finish on shutdown before cutting them")
	admit := fs.Bool("admit", false, "enable build admission control (bounded queue, load shedding, circuit breaker)")
	maxBuilds := fs.Int("max-builds", 0, "concurrent build limit when -admit (0 = 2)")
	maxQueue := fs.Int("max-queue", 0, "queued-build limit when -admit (0 = 64, negative = unbounded)")
	dropEvery := fs.Int64("drop-every", 0, "drop the connection after every N body bytes (0 = never)")
	latency := fs.Duration("latency", 0, "added latency before each body write")
	corruptEvery := fs.Int64("corrupt-every", 0, "flip a seeded bit in every Nth body byte (0 = never)")
	stallAfter := fs.Int64("stall-after", 0, "stall the response after N body bytes (0 = never)")
	stallFor := fs.Duration("stall-for", 0, "bound each stall (0 = stall until the client gives up)")
	truncateAfter := fs.Int64("truncate-after", 0, "end the response cleanly after N body bytes (0 = never)")
	garbageRangeEvery := fs.Int64("garbage-range-every", 0, "answer every Nth Range request with a bogus 206 (0 = never)")
	flakyTOC := fs.Int("flaky-toc", 0, "fail the first N unit-table requests with a 503 (0 = never)")
	seed := fs.Uint64("seed", 0, "seed for corruption masks and garbage bytes (0 = fixed default)")
	clusterMode := fs.Bool("cluster", false, "join a sharded cluster: build only owned keys, peer-fill the rest")
	nodeName := fs.String("node-name", "", "this member's name in the ring (required with -cluster)")
	peerList := fs.String("peers", "", "other members as name=url,name=url (with -cluster)")
	ringSeed := fs.Uint64("ring-seed", 0, "consistent-hash ring seed (must match every member and the router)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per member (0 = default; must match every member)")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("serve: usage: nonstrict serve <name> [-addr host:port] [-rate N] [-order P] [-cache-bytes N] [-store-dir DIR] [-drain-timeout D] [-admit] [-max-builds N] [-max-queue N] [-cluster -node-name N -peers name=url,... [-ring-seed N] [-vnodes N]] [-drop-every N] [-latency D] [-corrupt-every N] [-stall-after N] [-stall-for D] [-truncate-after N] [-garbage-range-every N] [-flaky-toc N] [-seed N]")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fault := stream.Fault{
		DropEvery:         *dropEvery,
		Latency:           *latency,
		CorruptEvery:      *corruptEvery,
		StallAfter:        *stallAfter,
		StallFor:          *stallFor,
		TruncateAfter:     *truncateAfter,
		GarbageRangeEvery: *garbageRangeEvery,
		FlakyTOC:          *flakyTOC,
		Seed:              *seed,
	}
	sc := server.Config{
		DefaultApp: name,
		Order:      *order,
		CacheBytes: *cacheBytes,
		Rate:       *rate,
		Fault:      fault,
		StoreDir:   *storeDir,
		Admit: server.AdmitConfig{
			Enabled:   *admit,
			MaxBuilds: *maxBuilds,
			MaxQueue:  *maxQueue,
		},
	}
	var srv *server.Server
	var handler http.Handler
	if *clusterMode {
		node, err := newClusterNode(*nodeName, *peerList, *ringSeed, *vnodes, sc)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		srv = node.Server()
		handler = node.Handler()
		fmt.Fprintf(out, "cluster member %s over ring %v (seed %#x); non-owned keys peer-fill on demand\n",
			node.Name(), node.Ring().Nodes(), *ringSeed)
	} else {
		s, err := server.New(sc)
		if err != nil {
			return err
		}
		srv = s
		handler = s.Handler()
		// Prewarm only outside cluster mode: a cluster member's warm
		// path would peer-fill, and at boot its peers may not be
		// listening yet — let the first request (or the router) drive it.
		size, err := srv.Warm(ctx, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "serving %s (%d stream bytes) at http://%s/app\n", name, size, ln.Addr())
	}
	hs := &http.Server{Handler: handler}
	if *storeDir != "" {
		fmt.Fprintf(out, "artifact store at %s (restarts serve without rebuilding)\n", *storeDir)
	}
	fmt.Fprintf(out, "apps: %s at http://%s/apps/{name}/app (+ .toc; index at /apps; order=%s)\n",
		strings.Join(srv.Apps(), " "), ln.Addr(), srv.Order())
	fmt.Fprintf(out, "metrics at http://%s/metrics\n", ln.Addr())
	if fault.Enabled() {
		fmt.Fprintf(out, "fault injection: drop-every=%d corrupt-every=%d stall-after=%d/%v truncate-after=%d garbage-range-every=%d flaky-toc=%d latency=%v seed=%#x\n",
			fault.DropEvery, fault.CorruptEvery, fault.StallAfter, fault.StallFor,
			fault.TruncateAfter, fault.GarbageRangeEvery, fault.FlakyTOC, fault.Latency, fault.Seed)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful drain: stop admitting work (readyz fails, new builds
		// shed), then give in-flight responses -drain-timeout to complete.
		// hs.Shutdown already closes the listener before waiting, so no
		// new connection lands after this line.
		srv.BeginDrain()
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		serr := hs.Shutdown(sctx)
		cut := int64(0)
		if serr != nil {
			// Deadline expired with streams still open: report how many
			// we are about to cut, then cut them.
			cut = srv.ActiveStreams()
			hs.Close()
		}
		fmt.Fprintf(out, "drained in ≤%v: %d streams cut, %d total requests served\n",
			*drainTimeout, cut, srv.Requests())
		return ctx.Err()
	}
}

// cmdFetch downloads a served benchmark through the fault-tolerant
// fetch client, loads it non-strictly with incremental verification,
// executes it, and runs the workload self-check.
func cmdFetch(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fetch", flag.ContinueOnError)
	name := fs.String("name", "", "benchmark name (for input args and self-check)")
	train := fs.Bool("train", false, "run the train input instead of test")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request idle timeout")
	retries := fs.Int("retries", 8, "retries of a failed attempt before giving up (a connection gets N+1 zero-progress attempts)")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per failure, capped)")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("fetch: usage: nonstrict fetch <url> -name <benchmark> [-train] [-timeout D] [-retries N] [-backoff D]")
	}
	url := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("fetch: -name is required")
	}
	app, err := apps.ByName(*name)
	if err != nil {
		return err
	}

	client := &stream.FetchClient{
		RequestTimeout: *timeout,
		MaxRetries:     *retries,
		BackoffBase:    *backoff,
	}
	body, err := client.Open(ctx, url)
	if err != nil {
		return err
	}
	defer body.Close()

	start := time.Now()
	var mainReadyAt time.Duration
	var ready int
	loader := stream.NewLoader(*name, app.IR.Main, nil)
	if err := loader.Load(body, func(e stream.Event) {
		if e.Kind == stream.MethodReady {
			ready++
			if ready == 1 {
				mainReadyAt = time.Since(start)
			}
		}
	}); err != nil {
		return err
	}
	total := time.Since(start)

	prog, err := loader.Program()
	if err != nil {
		return err
	}
	ln, err := vm.Link(prog)
	if err != nil {
		return err
	}
	m, err := ln.Run(vm.Options{Args: app.Args(*train)})
	if err != nil {
		return err
	}
	if err := app.Check(m, *train); err != nil {
		return fmt.Errorf("fetch: self-check failed: %w", err)
	}
	fmt.Fprintf(out, "fetched %d bytes in %v; first method runnable after %v\n",
		loader.Consumed(), total.Round(time.Millisecond), mainReadyAt.Round(time.Millisecond))
	st := client.Stats()
	fmt.Fprintf(out, "transfer: %d bytes in %d requests (%d retries, %d resumes)\n",
		st.BytesTransferred, st.Requests, st.Retries, st.Resumes)
	fmt.Fprintf(out, "executed %d instructions; self-check: ok\n", m.Steps())
	return nil
}

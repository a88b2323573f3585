package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"nonstrict/internal/cluster"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
)

// newServer builds the HTTP server the tests drive: a multi-tenant
// code server with name prebuilt and aliased at /app.
func newServer(name string, fault stream.Fault) (*http.Server, int64, error) {
	srv, err := server.New(server.Config{DefaultApp: name, Fault: fault})
	if err != nil {
		return nil, 0, err
	}
	size, err := srv.Warm(context.Background(), name)
	if err != nil {
		return nil, 0, err
	}
	return &http.Server{Handler: srv.Handler()}, size, nil
}

// capture runs one subcommand and returns its output.
func capture(t *testing.T, cmd string, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := dispatch(context.Background(), cmd, args, &b); err != nil {
		t.Fatalf("%s %v: %v", cmd, args, err)
	}
	return b.String()
}

// captureErr runs one subcommand expecting failure.
func captureErr(t *testing.T, cmd string, args ...string) error {
	t.Helper()
	var b strings.Builder
	return dispatch(context.Background(), cmd, args, &b)
}

func TestList(t *testing.T) {
	out := capture(t, "list")
	for _, name := range []string{"BIT", "Hanoi", "JavaCup", "Jess", "JHLZip", "TestDes"} {
		if !strings.Contains(out, name) {
			t.Errorf("list missing %s", name)
		}
	}
}

func TestRun(t *testing.T) {
	out := capture(t, "run", "Hanoi")
	if !strings.Contains(out, "self-check: ok") {
		t.Errorf("run output missing self-check:\n%s", out)
	}
	out = capture(t, "run", "Hanoi", "-train")
	if !strings.Contains(out, "dynamic instructions") {
		t.Errorf("train run output wrong:\n%s", out)
	}
	if err := captureErr(t, "run", "Nope"); err == nil {
		t.Error("run of unknown benchmark succeeded")
	}
}

// TestStatsAndLatency: the program statistics and the invocation-latency
// table are selections of tables, not commands of their own.
func TestStatsAndLatency(t *testing.T) {
	out := capture(t, "tables", "-t", "1,2,3")
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Jess"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables -t 1,2,3 missing %q", want)
		}
	}
	out = capture(t, "tables", "-t", "4")
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "AVG") {
		t.Errorf("tables -t 4 output wrong:\n%s", out)
	}
	for _, gone := range []string{"stats", "latency", "figure6", "ablate", "jit"} {
		if err := captureErr(t, gone); err != errUsage {
			t.Errorf("%s: err = %v, want errUsage", gone, err)
		}
	}
}

func TestTablesSelection(t *testing.T) {
	out := capture(t, "tables", "-t", "8,9")
	if !strings.Contains(out, "Table 8") || !strings.Contains(out, "Table 9") {
		t.Error("selected tables missing")
	}
	if strings.Contains(out, "Table 5") {
		t.Error("unselected table printed")
	}
	// The figure and the extension studies are ids beside the numbers,
	// printed in the table's order whatever order they are asked in.
	out = capture(t, "tables", "-t", "jit, ablate,fig6")
	at := -1
	for _, want := range []string{"Figure 6:", "Ablation: static-estimator", "Extension: procedure splitting", "Extension: JIT compilation"} {
		i := strings.Index(out, want)
		if i <= at {
			t.Errorf("%q missing or out of order (at %d, previous at %d)", want, i, at)
		}
		at = i
	}
	if strings.Contains(out, "Table 1") {
		t.Error("unselected table printed")
	}
	if err := captureErr(t, "tables", "-t", "5,figure6"); err == nil || !strings.Contains(err.Error(), `"figure6"`) {
		t.Errorf("unknown id: err = %v", err)
	}
}

// TestTablesParallelStats: the -par / -stats flags run the simulated
// tables through the worker pool and report its counters.
func TestTablesParallelStats(t *testing.T) {
	out := capture(t, "tables", "-t", "5", "-par", "2", "-stats")
	if !strings.Contains(out, "Table 5") {
		t.Errorf("table missing:\n%s", out)
	}
	if !strings.Contains(out, "runner:") || !strings.Contains(out, "demand fetches") {
		t.Errorf("runner stats missing:\n%s", out)
	}
	// A canceled context aborts every table, and the commands that load
	// a benchmark, before anything prints: the suite's load checks ctx,
	// not only the generators that simulate.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"tables", "-t", "5"},
		{"tables", "-t", "1"},
		{"tables", "-t", "8"},
		{"tables", "-t", "ablate"},
		{"tables", "-t", "jit"},
		{"sim", "Hanoi"},
		{"run", "Hanoi"},
	} {
		var b strings.Builder
		if err := dispatch(ctx, args[0], args[1:], &b); !errors.Is(err, context.Canceled) {
			t.Errorf("canceled %v: err = %v, want context.Canceled", args, err)
		}
		if b.Len() != 0 {
			t.Errorf("canceled %v printed %q", args, b.String())
		}
	}
}

func TestSim(t *testing.T) {
	out := capture(t, "sim", "Hanoi", "-order", "test", "-engine", "interleaved", "-link", "t1", "-mode", "partitioned")
	for _, want := range []string{"invocation latency", "normalized", "strict baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q:\n%s", want, out)
		}
	}
	// Flag validation.
	for _, bad := range [][]string{
		{"Hanoi", "-order", "zzz"},
		{"Hanoi", "-engine", "zzz"},
		{"Hanoi", "-mode", "zzz"},
		{"Hanoi", "-link", "zzz"},
		{"-order", "test"}, // flag before name
		{},
	} {
		if err := captureErr(t, "sim", bad...); err == nil {
			t.Errorf("sim %v succeeded", bad)
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	for _, cmd := range []string{"frobnicate", "fleet"} {
		if err := captureErr(t, cmd); err != errUsage {
			t.Errorf("%s: err = %v, want errUsage", cmd, err)
		}
	}
}

func TestServeAndFetch(t *testing.T) {
	srv, size, err := newServer("Hanoi", stream.Fault{})
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatal("empty stream")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	out := capture(t, "fetch", "http://"+ln.Addr().String()+"/app", "-name", "Hanoi")
	if !strings.Contains(out, "self-check: ok") {
		t.Errorf("fetch output:\n%s", out)
	}
	if !strings.Contains(out, "transfer:") || !strings.Contains(out, "requests") {
		t.Errorf("fetch output missing transfer stats:\n%s", out)
	}
	out = capture(t, "fetch", "http://"+ln.Addr().String()+"/app", "-name", "Hanoi", "-train")
	if !strings.Contains(out, "self-check: ok") {
		t.Errorf("train fetch output:\n%s", out)
	}

	// Error paths.
	if err := captureErr(t, "fetch", "http://"+ln.Addr().String()+"/app"); err == nil {
		t.Error("fetch without -name succeeded")
	}
	if err := captureErr(t, "fetch", "http://"+ln.Addr().String()+"/nope", "-name", "Hanoi"); err == nil {
		t.Error("fetch of missing path succeeded")
	}
	if err := captureErr(t, "serve", "-addr", "x"); err == nil {
		t.Error("serve without name succeeded")
	}
}

// TestClientCommandsOverT1: fetch and run-remote read a real server
// through a T1-shaped connection (-link t1), the link the benchmark's
// live-t1 workload uses, and still pass their self-checks. Every
// connection pays the link's round trip before its first byte, so
// neither command can finish sooner; an unknown link name is refused.
func TestClientCommandsOverT1(t *testing.T) {
	srv, _, err := newServer("Hanoi", stream.Fault{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	url := "http://" + ln.Addr().String() + "/app"
	rtt := stream.LinkT1.RTT - stream.LinkT1.Jitter
	for _, cmd := range []string{"fetch", "run-remote"} {
		start := time.Now()
		out := capture(t, cmd, url, "-name", "Hanoi", "-link", "t1")
		if d := time.Since(start); d < rtt {
			t.Errorf("%s -link t1 finished in %v, under the link's %v round trip", cmd, d, rtt)
		}
		if !strings.Contains(out, "self-check: ok") {
			t.Errorf("%s -link t1 output:\n%s", cmd, out)
		}
		err := captureErr(t, cmd, url, "-name", "Hanoi", "-link", "lan")
		if err == nil || !strings.Contains(err.Error(), "t1, modem") {
			t.Errorf("%s -link lan: err = %v, want one naming t1, modem", cmd, err)
		}
	}
}

// TestServeAndFetchWithFaults: the full CLI round trip over a server
// that drops the connection every 600 body bytes. The fetch client must
// resume transparently and the loaded program must still pass its
// self-check.
func TestServeAndFetchWithFaults(t *testing.T) {
	srv, size, err := newServer("Hanoi", stream.Fault{DropEvery: 600})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	out := capture(t, "fetch", "http://"+ln.Addr().String()+"/app", "-name", "Hanoi")
	if !strings.Contains(out, "self-check: ok") {
		t.Errorf("faulty fetch output:\n%s", out)
	}
	if size > 600 && strings.Contains(out, " 0 resumes)") {
		t.Errorf("transfer reported no resumes over a dropping link:\n%s", out)
	}
}

// TestServeAndRunRemote: the overlapped-execution round trip. The
// program executes while its bytes stream in, passes its self-check,
// and reports first-invocation latencies and overlap next to the
// simulator's predictions.
func TestServeAndRunRemote(t *testing.T) {
	srv, _, err := newServer("Hanoi", stream.Fault{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	url := "http://" + ln.Addr().String() + "/app"
	out := capture(t, "run-remote", url, "-name", "Hanoi", "-stats", "-backoff", "1ms")
	for _, want := range []string{
		"self-check: ok",
		"first method runnable after",
		"measured overlap:",
		"first-invocation latencies",
		"simulator prediction",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("run-remote output missing %q:\n%s", want, out)
		}
	}
	// The session ends when the program does: the transfer line says
	// whether the stream completed first or was cut, and how much of it
	// arrived.
	m := regexp.MustCompile(`transfer done at \S+ \(stream (completed|cut when execution finished): (\d+) of (\d+) bytes arrived\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("run-remote output has no transfer line:\n%s", out)
	}
	got, _ := strconv.ParseInt(m[2], 10, 64)
	of, _ := strconv.ParseInt(m[3], 10, 64)
	if got > of || m[1] == "completed" && got != of {
		t.Errorf("stream %s with %d of %d bytes:\n%s", m[1], got, of, out)
	}

	// Error paths.
	if err := captureErr(t, "run-remote", url); err == nil {
		t.Error("run-remote without -name succeeded")
	}
	if err := captureErr(t, "run-remote", "http://"+ln.Addr().String()+"/nope", "-name", "Hanoi"); err == nil {
		t.Error("run-remote of missing path succeeded")
	}
}

// chaosPeriod picks a CorruptEvery period that deterministically flips
// exactly one payload byte of the served stream (the arithmetic is
// shared with internal/live's chaos tests): the target unit sits in the
// stream's second half and every unit is shorter than the period, so
// repair and demand Range replies come back clean. In Hanoi's static
// order that unit is Hanoi.solve, which the test input runs in stream
// order (internal/live's corruptTarget checks that), so only the main
// stream can deliver it and the session cannot end before the
// corruption is detected.
func chaosPeriod(t *testing.T, base string) int64 {
	t.Helper()
	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	data := get("/app")
	toc, err := stream.ParseTOC(get("/app.toc"))
	if err != nil {
		t.Fatal(err)
	}
	maxLen := 0
	for _, u := range toc {
		if u.Len > maxLen {
			maxLen = u.Len
		}
	}
	half := int64(len(data)) / 2
	for _, u := range toc {
		period := u.Off + int64(u.Len)/2 + 1
		if u.Off >= half && period > int64(maxLen) && u.Len >= 2 {
			return period
		}
	}
	t.Fatal("no unit in the stream's second half to target")
	return 0
}

// TestServeAndRunRemoteChaos: the CLI acceptance scenario for the chaos
// harness — serve under a seeded fault schedule (silent corruption plus
// a flaky unit table and garbage Range replies), execute overlapped with
// a gate deadline, and require identical output with the corruption and
// repair counters visible in the report.
func TestServeAndRunRemoteChaos(t *testing.T) {
	// A clean server first, to measure the stream and pick the
	// deterministic corruption target.
	clean, _, err := newServer("Hanoi", stream.Fault{})
	if err != nil {
		t.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go clean.Serve(cln)
	period := chaosPeriod(t, "http://"+cln.Addr().String())
	clean.Close()

	srv, _, err := newServer("Hanoi", stream.Fault{
		CorruptEvery:      period,
		GarbageRangeEvery: 3,
		FlakyTOC:          1,
		Seed:              42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	url := "http://" + ln.Addr().String() + "/app"
	out := capture(t, "run-remote", url, "-name", "Hanoi",
		"-backoff", "1ms", "-latencies", "0", "-gate-timeout", "15s")
	if !strings.Contains(out, "self-check: ok") {
		t.Errorf("chaos run-remote output:\n%s", out)
	}
	if !strings.Contains(out, "integrity:") {
		t.Errorf("run-remote output missing the integrity report:\n%s", out)
	}
	if strings.Contains(out, "integrity: 0 corrupt units") {
		t.Errorf("corruption schedule ran but no corrupt units reported:\n%s", out)
	}
	if strings.Contains(out, "0 repaired") {
		t.Errorf("corrupt unit healed but no repair reported:\n%s", out)
	}
}

// TestServeAndRunRemoteWithFaults: overlapped execution over a dropping
// link — the acceptance scenario. Completion must survive the drops
// (resumes > 0) with the self-check still passing.
func TestServeAndRunRemoteWithFaults(t *testing.T) {
	srv, size, err := newServer("Hanoi", stream.Fault{DropEvery: 600})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	url := "http://" + ln.Addr().String() + "/app"
	out := capture(t, "run-remote", url, "-name", "Hanoi", "-backoff", "1ms", "-latencies", "0")
	if !strings.Contains(out, "self-check: ok") {
		t.Errorf("faulty run-remote output:\n%s", out)
	}
	if size > 600 && strings.Contains(out, " 0 resumes)") {
		t.Errorf("run-remote reported no resumes over a dropping link:\n%s", out)
	}
}

// httpGet fetches one URL or fails the test.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, b)
	}
	return string(b)
}

// metricValue extracts one sample from a Prometheus text exposition.
// name may include a label set, e.g. `x_total{kind="drop"}`.
func metricValue(t *testing.T, metrics, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, metrics)
	return 0
}

// TestServeMetricsDuringChaos: the serve command must expose scrapeable
// Prometheus counters while a chaos schedule runs — request and byte
// totals from real traffic and fault injections attributed by kind.
//
// run-remote fetches the unit table beside the stream, and a run that
// finishes first cancels that fetch, possibly before it reaches the
// server. So the flaky table is the test's own: it fetches /app.toc
// through a retrying client, which takes the one injected 503 and then
// the table, and run-remote runs after it against a healthy table.
func TestServeMetricsDuringChaos(t *testing.T) {
	srv, _, err := newServer("Hanoi", stream.Fault{FlakyTOC: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Scrapeable before any traffic: all counters present and zero.
	metrics := httpGet(t, base+"/metrics")
	if got := metricValue(t, metrics, "nonstrict_http_requests_total"); got != 0 {
		t.Errorf("pre-traffic requests = %d, want 0", got)
	}
	metricValue(t, metrics, "nonstrict_active_streams")

	client := &stream.FetchClient{BackoffBase: time.Millisecond}
	if _, err := client.Fetch(context.Background(), base+"/app.toc", io.Discard); err != nil {
		t.Fatalf("fetching the unit table under a flaky schedule: %v", err)
	}

	out := capture(t, "run-remote", base+"/app", "-name", "Hanoi", "-backoff", "1ms", "-latencies", "0")
	if !strings.Contains(out, "self-check: ok") {
		t.Fatalf("run-remote after a flaky TOC failed:\n%s", out)
	}

	metrics = httpGet(t, base+"/metrics")
	// The test failed once on /app.toc, then got it; run-remote fetched
	// /app.
	if got := metricValue(t, metrics, "nonstrict_http_requests_total"); got < 3 {
		t.Errorf("requests_total = %d, want >= 3 (app + toc retry + toc)", got)
	}
	if got := metricValue(t, metrics, "nonstrict_bytes_served_total"); got <= 0 {
		t.Errorf("bytes_served_total = %d, want > 0", got)
	}
	if got := metricValue(t, metrics, `nonstrict_fault_injections_total{kind="flaky_toc"}`); got < 1 {
		t.Errorf("flaky_toc injections = %d, want >= 1", got)
	}
	if got := metricValue(t, metrics, "nonstrict_active_streams"); got != 0 {
		t.Errorf("active_streams = %d after the run, want 0", got)
	}
	for _, typ := range []string{"# TYPE nonstrict_http_requests_total counter", "# TYPE nonstrict_active_streams gauge"} {
		if !strings.Contains(metrics, typ) {
			t.Errorf("exposition missing %q:\n%s", typ, metrics)
		}
	}

	// /metrics is the one export: the Range counter is a series of it.
	metricValue(t, metrics, "nonstrict_range_requests_total")
}

// TestRunRemoteTraceAndSummary: -trace exports a Chrome trace the trace
// subcommand can round-trip, and -trace-summary prints a stall
// attribution whose components sum to each measured latency, beside the
// simulator's predicted stalls.
func TestRunRemoteTraceAndSummary(t *testing.T) {
	srv, _, err := newServer("Hanoi", stream.Fault{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "run.trace.json")
	url := "http://" + ln.Addr().String() + "/app"
	out := capture(t, "run-remote", url, "-name", "Hanoi",
		"-backoff", "1ms", "-latencies", "0", "-trace", path, "-trace-summary")
	if !strings.Contains(out, "self-check: ok") {
		t.Fatalf("traced run-remote failed:\n%s", out)
	}
	if !strings.Contains(out, "events written to "+path) {
		t.Errorf("run-remote output missing the trace report:\n%s", out)
	}
	if strings.Contains(out, "trace: 0 events") {
		t.Errorf("trace recorded no events:\n%s", out)
	}
	if !strings.Contains(out, "stall attribution (measured; sim prediction:") {
		t.Errorf("run-remote output missing the attribution table:\n%s", out)
	}
	// The decomposition is exact by construction; "within 0s" is the
	// paper-criterion (±1ms) met with no slack at all.
	if !strings.Contains(out, "attribution check: components sum to latency within 0s") {
		t.Errorf("attribution components do not sum to the measured latencies:\n%s", out)
	}
	if !strings.Contains(out, "predicted stalls") {
		t.Errorf("attribution table missing the simulator comparison:\n%s", out)
	}

	// Round-trip the exported file through the trace subcommand.
	sum := capture(t, "trace", path)
	if !strings.Contains(sum, "events spanning") || strings.Contains(sum, " 0 events") {
		t.Errorf("trace summary output:\n%s", sum)
	}

	// Error paths.
	if err := captureErr(t, "trace"); err == nil {
		t.Error("trace without a file succeeded")
	}
	if err := captureErr(t, "trace", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("trace of a missing file succeeded")
	}
	junk := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(junk, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := captureErr(t, "trace", junk); err == nil {
		t.Error("trace of a non-trace file succeeded")
	}
}

// TestClusterServeAndFetch is the CLI cluster round trip: two members
// built exactly as `serve -cluster` builds them, a router over both,
// and a fetch of every benchmark through the router. Each key must be
// built by its owner only; the other member peer-fills on demand.
func TestClusterServeAndFetch(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()

	nodeA, err := newClusterNode("a", "b="+urlB, 0x90, 0, server.Config{DefaultApp: "Hanoi"})
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := newClusterNode("b", "a="+urlA, 0x90, 0, server.Config{DefaultApp: "Hanoi"})
	if err != nil {
		t.Fatal(err)
	}
	hsA := &http.Server{Handler: nodeA.Handler()}
	hsB := &http.Server{Handler: nodeB.Handler()}
	go hsA.Serve(lnA)
	go hsB.Serve(lnB)
	defer hsA.Close()
	defer hsB.Close()

	ring := nodeA.Ring()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Ring:  ring,
		Nodes: map[string]string{"a": urlA, "b": urlB},
		Order: nodeA.Server().Order(),
	})
	if err != nil {
		t.Fatal(err)
	}
	lnR, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hsR := &http.Server{Handler: rt}
	go hsR.Serve(lnR)
	defer hsR.Close()

	// Fetch through the router: whatever node owns Hanoi builds it; a
	// second fetch of the same key stays a cache hit everywhere.
	routerURL := "http://" + lnR.Addr().String()
	out := capture(t, "fetch", routerURL+"/apps/Hanoi/app", "-name", "Hanoi")
	if !strings.Contains(out, "self-check: ok") {
		t.Errorf("fetch through router:\n%s", out)
	}
	key := server.Key{App: "Hanoi", Order: nodeA.Server().Order()}
	owner := ring.Owner(key.String())
	builds := map[string]int64{
		"a": nodeA.Server().CacheStats().Builds,
		"b": nodeB.Server().CacheStats().Builds,
	}
	for name, n := range builds {
		want := int64(0)
		if name == owner {
			want = 1
		}
		if n != want {
			t.Errorf("node %s: %d builds, want %d (owner is %s)", name, n, want, owner)
		}
	}

	// Hit the NON-owner directly: it must peer-fill from the owner, not
	// run the pipeline.
	nonOwner, nonOwnerURL := "a", urlA
	filled := nodeA
	if owner == "a" {
		nonOwner, nonOwnerURL = "b", urlB
		filled = nodeB
	}
	out = capture(t, "fetch", nonOwnerURL+"/apps/Hanoi/app", "-name", "Hanoi")
	if !strings.Contains(out, "self-check: ok") {
		t.Errorf("fetch from non-owner:\n%s", out)
	}
	st := filled.Server().CacheStats()
	if st.Builds != 0 || st.PeerFills != 1 {
		t.Errorf("non-owner %s: builds=%d peer_fills=%d, want 0/1", nonOwner, st.Builds, st.PeerFills)
	}
	if n := filled.FallbackBuilds(); n != 0 {
		t.Errorf("non-owner %s: %d fallback builds with the owner healthy", nonOwner, n)
	}

	// Flag and membership error paths.
	if err := captureErr(t, "router"); err == nil {
		t.Error("router without -peers succeeded")
	}
	if err := captureErr(t, "router", "-peers", "bogus"); err == nil {
		t.Error("router with malformed -peers succeeded")
	}
	if _, err := newClusterNode("", "b="+urlB, 0, 0, server.Config{}); err == nil {
		t.Error("cluster node without -node-name succeeded")
	}
	if _, err := newClusterNode("a", "a="+urlA, 0, 0, server.Config{}); err == nil {
		t.Error("cluster node listing itself as a peer succeeded")
	}
	if _, err := parsePeers("a=1,a=2"); err == nil {
		t.Error("duplicate peer name parsed")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileAndTailRule(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for p, want := range map[float64]float64{0: 1, 50: 3, 75: 4, 90: 4.6, 100: 5} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, p, got, want)
		}
	}
	// The tail is the highest percentile with at least ten samples
	// beyond it.
	for n, want := range map[int]float64{6: 50, 39: 50, 40: 75, 100: 90, 199: 90, 200: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "parent", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "child", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "child", Start: at(20), End: at(50)}, // overlaps the first
		{ID: 4, Parent: 1, Name: "late", Start: at(60), End: at(120)}, // reaches past the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: at(25), End: at(45)},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and, clipped, [60,100): 80 of the 100 ms.
	want := map[string]time.Duration{"parent": at(20), "child": at(20 + 30 - 20), "late": at(60), "leaf": at(20)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := nestingErrors(spans); got != 1 {
		t.Errorf("nestingErrors = %d, want 1 (the span that outlives its parent)", got)
	}

	tr := newTracer()
	root := tr.root("root", "w", 0)
	child := root.onLane(2).begin("child", "w/app/0")
	child.end()
	root.end()
	open := root.begin("never ended", "")
	_ = open
	got := tr.finished()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Lane != 2 || nestingErrors(got) != 0 {
		t.Errorf("finished spans = %+v", got)
	}
	var nilTracer *tracer
	nilTracer.root("x", "", 0).begin("y", "").end() // an untraced run records nothing and must not panic
}

// BENCHMARK.json and the tables the driver prints from must not drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	type entry map[string]any
	want := map[string]any{
		"command":     []any{"go", "run", "-C", "benchmark", "."},
		"paths":       []any{"benchmark"},
		"run_seconds": float64(runSeconds),
	}
	var ws, e2e, layers []any
	for _, w := range workloads {
		ws = append(ws, entry{"name": w.name, "why": w.why})
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		e2e = append(e2e, entry{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		layers = append(layers, entry{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	want["workloads"], want["end_to_end"], want["per_layer"] = ws, e2e, layers
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("%v\nexpected content:\n%s", err, wantJSON)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	// Compare through JSON so []any and []entry look alike.
	var wantAny map[string]any
	if err := json.Unmarshal(wantJSON, &wantAny); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantAny) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and main.go; expected:\n%s", wantJSON)
	}

	// The README explains every name the driver prints.
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.Name)
	}
	for _, n := range names {
		if !bytes.Contains(readme, []byte("`"+n+"`")) {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}
}

// One quick pass of every workload with its checks on, and one traced
// run. Timings are not asserted — only that every named metric is
// printed, nothing failed, and the trace is well formed.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			e := newEnv(7, 0, true, t.TempDir())
			out, err := run(e, w, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("correct %v, attempted %d, failed %d: %v", out.Correct, out.Attempted, out.Failed, out.Notes)
			}
			for _, d := range endToEnd {
				if v, ok := out.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.Name, v, ok, d.Unit)
				}
			}
			if len(out.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics printed, %d declared", len(out.Metrics), len(endToEnd))
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		e := newEnv(7, 0, true, dir)
		tracePath := filepath.Join(dir, "trace.json")
		out, err := run(e, workloads[2], true, tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct {
			t.Errorf("traced run failed checks: %v", out.Notes)
		}
		m := func(name string) float64 { return out.Metrics[name].Value }
		for _, d := range perLayer {
			if _, ok := out.Metrics[d.Name]; !ok {
				t.Errorf("%s not printed", d.Name)
			}
		}
		if len(out.Metrics) != len(perLayer) {
			t.Errorf("%d metrics printed, %d declared", len(out.Metrics), len(perLayer))
		}
		for _, name := range []string{"jir.compile_ms", "stream.loader_mb_per_s", "vm.run_minstr_per_s", "server.handler_stream_us",
			"server.handler_stream_allocs", "cluster.peer_fill_ms", "stream.toc_bytes_per_stream_byte", "server.cache_hits", "trace.overhead"} {
			if !(m(name) > 0) {
				t.Errorf("%s = %v, want > 0", name, m(name))
			}
		}
		stages := m("jir.compile_ms") + m("cfg.build_ms") + m("reorder.static_ms") + m("restructure.apply_ms") +
			m("stream.write_ms") + m("stream.marshal_toc_ms")
		if build := m("server.build_ms.scg"); math.Abs(stages+m("server.build_self_ms")-build) > 0.05*build {
			t.Errorf("stages %.3f + self %.3f != server.build_ms.scg %.3f", stages, m("server.build_self_ms"), build)
		}
		// serve-warm touches neither the live runtime nor the cluster.
		if m("live.stall_ms") != 0 || m("cluster.proxied") != 0 || m("server.builds") != 0 {
			t.Errorf("bypassed layers report work: stall %v, proxied %v, builds %v", m("live.stall_ms"), m("cluster.proxied"), m("server.builds"))
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Dur  float64
			}
		}
		if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Fatalf("trace file: %v, %d events", err, len(trace.TraceEvents))
		}
	})
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, total, ops float64, failed int64) string {
		rep := report{Workloads: []*outcome{{Workload: "live-lan", Failed: failed, Metrics: map[string]value{
			"total_ms.p50": {Value: total, Unit: "ms"},
			"ops_per_s":    {Value: ops, Unit: "1/s"},
		}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 10, 0)
	if err := compareReports(base, write("same.json", 108, 9.5, 0)); err != nil {
		t.Errorf("within bounds: %v", err)
	}
	if err := compareReports(base, write("slow.json", 117, 10, 0)); err == nil {
		t.Error("a 17% slower total_ms.p50 passed a 15% bound")
	}
	if err := compareReports(base, write("fewer.json", 100, 8, 0)); err == nil {
		t.Error("20% fewer ops_per_s passed a 15% bound")
	}
	if err := compareReports(base, write("faster.json", 50, 20, 0)); err != nil {
		t.Errorf("an improvement was rejected: %v", err)
	}
	if err := compareReports(base, write("failing.json", 100, 10, 1)); err == nil {
		t.Error("a new failure passed")
	}
}

package stream_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/stream"
	"nonstrict/internal/xrand"
)

// loaderBudget is what Loader.Load may allocate per stream byte over the
// six paper apps' train streams, in bytes and in heap objects. Twenty
// plain runs read 2.14416–2.14437 bytes and 0.0058091–0.0058107 objects
// (go1.24, linux/amd64); the plain budgets are their maximum plus about
// 0.5 %. Under -race, sync.Pool drops a random quarter of its Puts, so a
// load may grow the verifier's scratch again: the race budgets are the
// worst case, every scratch dropped (2.48707 bytes, 0.0062216 objects),
// plus about 0.5 %. The plain budgets are the ones that pin the pooling.
var loaderBudget = struct{ bytes, objects, bytesRace, objectsRace float64 }{
	bytes: 2.155, objects: 0.005840, bytesRace: 2.500, objectsRace: 0.006253,
}

// TestLoaderAllocBudget pins the client receive path: loading the six
// paper apps' train streams from memory — unit CRC, global parse,
// per-method verify, whole-stream digest — allocates what the loader
// keeps and little else. That is one buffer per installed payload and a
// class's parsed global data, whose names view the payload instead of
// copying it; the verifier's scratch comes from the previous loader. A
// copied constant pool, a verifier grown from zero, or a per-unit
// allocation blows the byte or the object budget. The garbage collector
// is off while the loads are measured, so that no pool is emptied under
// them; under -race, sync.Pool drops a share of its Puts, hence the
// second pair of figures.
func TestLoaderAllocBudget(t *testing.T) {
	var streams []realTable
	for _, rt := range mustTables(t) {
		if rt.paper && rt.order == pipeline.OrderTrain {
			streams = append(streams, rt)
		}
	}
	if len(streams) != len(apps.Names()) {
		t.Fatalf("%d train streams, want one per paper app", len(streams))
	}
	load := func() (n int) {
		for _, rt := range streams {
			if err := stream.NewLoader(rt.name, "", nil).Load(bytes.NewReader(rt.data), nil); err != nil {
				t.Fatalf("%s: %v", rt.name, err)
			}
			n += len(rt.data)
		}
		return n
	}
	// One P: a sync.Pool keeps a buffer in a per-P slot that no other P
	// can take, so a goroutine that moved would miss it and grow a new one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	load() // fill the pools and the runtime's lazy state
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	streamed := float64(load())
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / streamed
	objects := float64(after.Mallocs-before.Mallocs) / streamed
	t.Logf("Loader.Load of six train streams, %.0f bytes: %.5f allocated bytes and %.7f objects per stream byte",
		streamed, perByte, objects)
	maxBytes, maxObjects := loaderBudget.bytes, loaderBudget.objects
	if raceBuild() {
		maxBytes, maxObjects = loaderBudget.bytesRace, loaderBudget.objectsRace
	}
	if perByte > maxBytes {
		t.Errorf("Loader.Load allocates %.4f bytes per stream byte, budget %.5f", perByte, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("Loader.Load allocates %.7f objects per stream byte, budget %.7f", objects, maxObjects)
	}
}

// bodyTransport answers every request with body and its length, from
// memory.
type bodyTransport struct{ body []byte }

func (b bodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Header: make(http.Header), Request: r,
		ContentLength: int64(len(b.body)), Body: io.NopCloser(bytes.NewReader(b.body)),
	}, nil
}

// TestFetchSizesBufferOnce: a session fetches its unit table into a
// bytes.Buffer, and Fetch grows that buffer once, to the length the
// response states. Left to grow as the body arrives, the buffer would
// allocate about two and a half times the body on its way up. Under
// -race, bytes.Buffer allocates each buffer it grows to twice, so the
// limit doubles.
func TestFetchSizesBufferOnce(t *testing.T) {
	body := xrand.New(42).Bytes(200 << 10)
	c := &stream.FetchClient{HTTP: &http.Client{Transport: bodyTransport{body}}}
	fetch := func() *bytes.Buffer {
		var buf bytes.Buffer
		if _, err := c.Fetch(context.Background(), "mem:///app.toc", &buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	fetch()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buf := fetch()
	runtime.ReadMemStats(&after)
	if !bytes.Equal(buf.Bytes(), body) {
		t.Fatal("fetched body differs")
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("fetching %d bytes into a bytes.Buffer allocates %d bytes", len(body), got)
	limit := uint64(len(body)) * 5 / 4
	if raceBuild() {
		limit *= 2
	}
	if got > limit {
		t.Errorf("fetching %d bytes allocates %d, want under %d: one buffer of the response's length", len(body), got, limit)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

package live

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"

	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// memTransport answers every request with the stream, from memory, so
// that what a session allocates is the client's own: no sockets, no
// server goroutines, no connection buffers.
type memTransport struct{ data []byte }

func (m memTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Header: make(http.Header), Request: r,
		ContentLength: int64(len(m.data)), Body: io.NopCloser(&trickle{bytes.NewReader(m.data)}),
	}, nil
}

// trickle hands out at most 512 bytes a read and yields the P after
// each, so that the program starts while most of its classes are still
// to come, as it does over a real link.
type trickle struct{ r *bytes.Reader }

func (t *trickle) Read(p []byte) (int, error) {
	defer runtime.Gosched()
	return t.r.Read(p[:min(len(p), 512)])
}

// runBudget and runObjects are what one live.Run of Jess may allocate,
// in bytes and heap objects: the least of three runs, each read with
// the garbage collector off. Twenty plain readings were all 2 724 744
// bytes and 4 823 objects (go1.24, linux/amd64); the plain budgets are
// that plus about 0.5 %. Under -race, sync.Pool drops a random quarter of
// its Puts, and a run whose verifier scratch was dropped grows a new one:
// twenty -race readings were 2 754 824–2 755 016 bytes and 4 835–4 837
// objects, and with every scratch dropped, the worst the drops can do,
// 2 827 560 bytes and 4 867 objects. The race budgets are that worst
// case plus about 0.5 %; the plain budgets are the ones that pin the
// pooling.
var (
	runBudget  = struct{ plain, race uint64 }{plain: 2_739_000, race: 2_842_000}
	runObjects = struct{ plain, race uint64 }{plain: 4_848, race: 4_892}
)

// TestRunAllocBudget pins what a whole session allocates: Jess run by
// live.Run over an in-memory transport. The receive path's per-session
// tables — the session's arrivals and waits, the live linker's method
// table and its index, the machine's per-method arrays — are each sized
// once, from the unit count the stream header carries; one that goes
// back to growing an entry at a time costs its doubling garbage and
// fails the byte budget, and a linked method allocated on its own fails
// the object budget. The program's own arrays are most of what remains.
//
// The runs are made to repeat exactly. The session has no unit table,
// so it never demand-fetches: how far execution outruns the loader would
// vary, and a demand fetch costs a request of its own (Fetch's sizing of
// the table's buffer is TestFetchSizesBufferOnce's). One P runs them,
// the stream trickling in so that execution starts early, as over a real
// link: a sync.Pool keeps a buffer in a per-P slot that no other P can
// take, so a goroutine that moved would miss it and grow a new one. And
// a regression costs every run where a dropped Put costs only some, so
// the figure is the least of three.
func TestRunAllocBudget(t *testing.T) {
	p := plan(t, "Jess")
	want := reference(t, p)
	client := fastClient()
	client.HTTP = &http.Client{Transport: memTransport{p.data}}
	run := func() {
		m, _, err := Run(context.Background(), Options{
			URL: "mem:///app", Name: p.rp.Name, MainClass: p.rp.MainClass, Client: client,
			Run: vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, p, m, want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // fill the pools and the runtime's lazy state
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("live.Run of Jess: %d bytes, %d objects", got, objects)
	maxBytes, maxObjects := runBudget.plain, runObjects.plain
	if raceBuild() {
		maxBytes, maxObjects = runBudget.race, runObjects.race
	}
	if got > maxBytes {
		t.Errorf("live.Run of Jess allocates %d bytes, budget %d", got, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("live.Run of Jess allocates %d objects, budget %d", objects, maxObjects)
	}
}

// TestRunLyingUnitCount keeps the stream header's unit count a bounded
// hint. The count is only compared with the units received at EOF, and
// the header's CRC is no authentication, so a server can claim 2^32
// units and send one. The session sizes its tables from the count as
// soon as the first class arrives; unbounded, that would reserve
// hundreds of gigabytes and kill the process before the lie surfaced.
// Here the stream is the header, resealed with that claim, and the first
// (global) unit: the run must fail with ErrBadStream, and allocate no
// more than a few megabytes doing so.
func TestRunLyingUnitCount(t *testing.T) {
	p := plan(t, "Jess")
	// Stream header: magic 4 | version 1 | reserved 1 | unit count u32 |
	// digest u32 | CRC32C of the first 14 bytes u32. A unit header
	// carries its payload length at bytes 3–6.
	const streamHeader = 18
	n := int(binary.BigEndian.Uint32(p.data[streamHeader+3:]))
	data := append([]byte(nil), p.data[:streamHeader+stream.UnitHeaderSize+n]...)
	binary.BigEndian.PutUint32(data[6:], math.MaxUint32)
	binary.BigEndian.PutUint32(data[14:], crc32.Checksum(data[:14], crc32.MakeTable(crc32.Castagnoli)))
	client := fastClient()
	client.HTTP = &http.Client{Transport: memTransport{data}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Run(context.Background(), Options{
		URL: "mem:///app", Name: p.rp.Name, MainClass: p.rp.MainClass, Client: client,
		Run: vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
	})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, stream.ErrBadStream) {
		t.Fatalf("err = %v, want ErrBadStream", err)
	}
	const budget = 16 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a header claiming 2^32 units: %d bytes allocated, err = %v", got, err)
	if got > budget {
		t.Errorf("a header claiming 2^32 units made the session allocate %d bytes, budget %d", got, budget)
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

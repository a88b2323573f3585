package stream

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/classfile"
)

// TestDiscardNZeroAlloc: the skip path must not allocate per call — the
// 32 KiB scratch comes from the pool. Run through AllocsPerRun so the
// regression (a fresh make per call) fails loudly.
func TestDiscardNZeroAlloc(t *testing.T) {
	data := make([]byte, 128*1024)
	r := bytes.NewReader(data)
	wd := time.AfterFunc(time.Hour, func() {})
	defer wd.Stop()
	// Warm the pool outside the measured runs.
	if err := discardN(r, int64(len(data)), wd, time.Hour); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.Seek(0, io.SeekStart)
		if err := discardN(r, int64(len(data)), wd, time.Hour); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("discardN allocates %.1f objects per 128 KiB skip, want 0 (pooled buffer)", allocs)
	}
}

// discardResponse is a ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestFaultCorruptionCopyIsPooled: the fault layer corrupts a copy of
// the body, and that copy is the pooled buffer however large a Write it
// corrupts. A handler that writes a 512 KiB body in one call allocates
// under half of it per request; an unpooled copy allocates all of it,
// and under -race the pool's dropped Puts cost a quarter of the 32 KiB
// pieces.
func TestFaultCorruptionCopyIsPooled(t *testing.T) {
	body := testPayload(512 << 10)
	h := Fault{CorruptEvery: 97, Seed: 3}.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	req := httptest.NewRequest(http.MethodGet, "/app", nil)
	serve := func() { h.ServeHTTP(&discardResponse{h: make(http.Header)}, req) }
	serve()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	if perReq := float64(after.TotalAlloc-before.TotalAlloc) / runs; perReq > float64(len(body))/2 {
		t.Errorf("corrupting a %d-byte Write allocates %.0f bytes per request, want under half the body", len(body), perReq)
	}
}

// TestPayloadPoolRoundTrip: pooled buffers come back at the requested
// length, oversized buffers are not pooled, and a recycled buffer is
// reused when its capacity suffices.
func TestPayloadPoolRoundTrip(t *testing.T) {
	b, box := getPayloadBuf(100)
	if len(b) != 100 {
		t.Fatalf("len = %d, want 100", len(b))
	}
	putPayloadBuf(b, box)
	c, _ := getPayloadBuf(50)
	if len(c) != 50 {
		t.Fatalf("len = %d, want 50", len(c))
	}
	// Buffers above the pool bound must be dropped, not pinned.
	big := make([]byte, maxPooledBuf+1)
	putPayloadBuf(big, nil) // must not panic, must not poison the pool
	d, _ := getPayloadBuf(10)
	if len(d) != 10 {
		t.Fatalf("len = %d, want 10", len(d))
	}
}

// TestPayloadPoolKeepsUndersizedBuffer is the mixed-unit-size regression
// test: a pooled buffer too small for the current request, one of a
// smaller size class, must stay in the pool, not be dropped. Before the
// first fix every large unit silently consumed one pooled small buffer,
// so a stream alternating small and large units degenerated to an
// allocation per unit.
func TestPayloadPoolKeepsUndersizedBuffer(t *testing.T) {
	// A GC between Put and Get may legitimately clear the pool; disable
	// it so the identity check below is deterministic.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Drain anything earlier tests left behind so the only pooled buffer
	// is the one this test plants.
	for i := range payloadPools {
		for payloadPools[i].Get() != nil {
		}
	}
	// Under -race, sync.Pool randomly drops a fraction of Puts, so no
	// single attempt can assert reuse. One observed reuse proves the fix
	// (the pre-fix code frees the planted buffer on every attempt, so it
	// can never pass); the attempt bound makes a missing Put fail with
	// overwhelming probability.
	for attempt := 0; attempt < 100; attempt++ {
		small, box := getPayloadBuf(64)
		putPayloadBuf(small, box)
		// A request the pooled buffer cannot satisfy: it must stay in
		// the pool, and the request be served by a fresh allocation.
		big, _ := getPayloadBuf(maxPooledBuf)
		if len(big) != maxPooledBuf {
			t.Fatalf("len = %d, want %d", len(big), maxPooledBuf)
		}
		again, _ := getPayloadBuf(64)
		if len(again) != 64 {
			t.Fatalf("len = %d, want 64", len(again))
		}
		if &again[0] == &small[0] {
			return // the undersized buffer survived the larger request
		}
	}
	t.Fatal("undersized pooled buffer was dropped by the larger request instead of returned to the pool")
}

// TestLoaderDuplicateReturnsPayload: a unit that arrives on the main
// stream after FeedDemand already installed it is a duplicate, and its
// payload buffer goes back to the pool instead of becoming garbage. A
// loader that demand-fetched every unit of an app Loads its whole stream
// as duplicates. Dropping each buffer allocates the payload again plus
// the loader's per-unit overhead, 1.08× the payload bytes; returning it
// costs a fraction of that on every app, whatever the mix of its unit
// sizes, under -race too, where sync.Pool drops a quarter of all Puts.
// The bound sits between the two.
func TestLoaderDuplicateReturnsPayload(t *testing.T) {
	for _, name := range apps.Names() {
		t.Run(name, func(t *testing.T) {
			app, _, _, w := plan(t, name)
			var buf bytes.Buffer
			if _, err := w.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			toc := w.TOC()
			var payload uint64
			for _, u := range toc {
				payload += uint64(u.Len)
			}
			fed := func() *Loader {
				l := NewLoader("dup", app.IR.Main, nil)
				for _, u := range toc {
					if _, err := l.FeedDemand(u.Class, u.Kind, u.Body, data[u.Off:u.Off+int64(u.Len)], u.CRC); err != nil {
						t.Fatal(err)
					}
				}
				return l
			}
			load := func(l *Loader) {
				if err := l.Load(bytes.NewReader(data), nil); err != nil {
					t.Fatal(err)
				}
			}
			load(fed()) // warm the pool
			const runs = 5
			var alloc uint64
			for range runs {
				l := fed()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				load(l)
				runtime.ReadMemStats(&after)
				alloc += after.TotalAlloc - before.TotalAlloc
			}
			ratio := float64(alloc) / runs / float64(payload)
			t.Logf("%d duplicate units, %d payload bytes: %.2f bytes allocated per payload byte", len(toc), payload, ratio)
			if ratio > 0.75 {
				t.Errorf("a Load of duplicates allocates %.2f× its payload bytes, want under 0.75× (each duplicate's buffer back in the pool)", ratio)
			}
		})
	}
}

// drainPayloadPools empties every payload pool, hands each buffer to f at
// its full capacity when f is non-nil, and returns how many there were.
func drainPayloadPools(f func([]byte)) int {
	n := 0
	for i := range payloadPools {
		for v := payloadPools[i].Get(); v != nil; v = payloadPools[i].Get() {
			if f != nil {
				b := *v.(*[]byte)
				f(b[:cap(b)])
			}
			n++
		}
	}
	return n
}

// TestParsedNamesOutlivePoolReuse: an installed class's names view its
// global unit's payload, and a method's code views its body unit's, so
// no buffer an installed unit holds may ever reach the payload pool. The
// stream here sends buffers back to the pool on both routes that do so:
// duplicates of units the demand path installed first, global and body
// units alike, and the corrupt copy of a global unit the Repair hook
// heals. The test then drains the pools and overwrites every buffer in
// them, as their next users would. Every installed class's names and
// constants, and every method's code and local data, must still equal a
// fresh parse of the reference bytes.
func TestParsedNamesOutlivePoolReuse(t *testing.T) {
	// One P: a buffer Put into another P's private slot would escape the
	// drain below, and so the overwrite.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, rp, _, w := plan(t, "JavaCup")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	toc := w.TOC()
	payload := func(u UnitInfo) []byte { return append([]byte(nil), good[u.Off:u.Off+int64(u.Len)]...) }

	// The last global unit arrives corrupt; the demand path races every
	// other global unit and the bodies of the second half of the stream.
	corrupt := len(toc) - 1
	for toc[corrupt].Kind != KindGlobal {
		corrupt--
	}
	if corrupt <= len(toc)/2 {
		t.Fatalf("JavaCup's last global unit is unit %d of %d", corrupt, len(toc))
	}
	mut := corruptUnit(t, good, corrupt)
	l := NewLoader(rp.Name, rp.MainClass, nil)
	l.Repair = func(RepairRequest) ([]byte, error) { return payload(toc[corrupt]), nil }
	raced := 0
	for i, u := range toc {
		if i == corrupt || (u.Kind == KindBody && (i < len(toc)/2 || u.Class == toc[corrupt].Class)) {
			continue // a body of the corrupt class needs its global in first
		}
		if _, err := l.FeedDemand(u.Class, u.Kind, u.Body, payload(u), u.CRC); err != nil {
			t.Fatalf("demand unit %d: %v", i, err)
		}
		raced++
	}

	drainPayloadPools(nil) // what the pools hold after the load is the load's
	if err := l.Load(bytes.NewReader(mut), nil); err != nil {
		t.Fatal(err)
	}
	if st := l.Integrity(); st.CorruptUnits != 1 || st.Repaired != 1 {
		t.Fatalf("integrity %+v, want the one corrupt unit repaired", st)
	}
	recycled := drainPayloadPools(func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	})
	t.Logf("%d units raced by the demand path, %d buffers recycled and overwritten", raced, recycled)
	if recycled == 0 {
		t.Fatal("no buffer reached the pool: the test exercises nothing")
	}

	p, err := l.Program()
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range p.Classes {
		ref := rp.Classes[ci]
		fresh, _, err := classfile.ParseGlobal(ref.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		if c.Name != fresh.Name || c.Super != fresh.Super || len(c.CP) != len(fresh.CP) {
			t.Fatalf("class %d: %q extends %q with %d constants, want %q extends %q with %d",
				ci, c.Name, c.Super, len(c.CP), fresh.Name, fresh.Super, len(fresh.CP))
		}
		for i := range c.CP {
			if c.CP[i] != fresh.CP[i] {
				t.Fatalf("class %s constant %d: %+v, want %+v", c.Name, i, c.CP[i], fresh.CP[i])
			}
		}
		for mi, m := range c.Methods {
			if !bytes.Equal(m.Code, ref.Methods[mi].Code) || !bytes.Equal(m.LocalData, ref.Methods[mi].LocalData) {
				t.Fatalf("class %s method %d: code or local data differs from the reference", c.Name, mi)
			}
		}
	}
}

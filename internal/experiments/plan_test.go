package experiments

import (
	"strings"
	"testing"

	"nonstrict/internal/restructure"
	"nonstrict/internal/stream"
	"nonstrict/internal/transfer"
)

// streamHeader is the size of the stream header (DESIGN.md §5.1). The
// simulator prices neither it nor the unit headers.
const streamHeader = 18

// TestPricedFileIsServedFile: the virtual file the paper's tables are
// computed from is the stream the server ships. For every app and order,
// the interleaved engine's arrivals are the writer's body units, byte
// for byte and unit for unit; after the framing, every writer offset is
// the engine's cumulative byte count; and the partitioned plan of every
// class sums to its file size.
func TestPricedFileIsServedFile(t *testing.T) {
	bs, err := suite(t).Benches()
	if err != nil {
		t.Fatal(err)
	}
	bytesLink := transfer.Link{Name: "bytes", CyclesPerByte: 1}
	for _, b := range bs {
		for _, k := range []OrderKind{SCG, Train, Test} {
			p := b.byOrder[k]
			w, err := stream.NewWriter(p.prog, b.Ix, p.order)
			if err != nil {
				t.Fatalf("%s %v: %v", b.App.Name, k, err)
			}
			arr := transfer.NewInterleaved(p.plan, bytesLink).(transfer.ArrivalSchedule).Arrivals()
			toc := w.TOC()
			if len(toc) != len(p.plan) {
				t.Fatalf("%s %v: writer ships %d units, plan has %d", b.App.Name, k, len(toc), len(p.plan))
			}
			var body, payload int
			for i, u := range toc {
				payload += u.Len
				if u.Kind != stream.KindBody {
					continue
				}
				if body >= len(arr) {
					t.Fatalf("%s %v: unit %d (%v) is a body the engine never delivers", b.App.Name, k, i, u.Method)
				}
				a := arr[body]
				if a.Ref != u.Method || a.Bytes != u.Len {
					t.Fatalf("%s %v: unit %d: writer ships %v in %d bytes, engine prices %v in %d",
						b.App.Name, k, i, u.Method, u.Len, a.Ref, a.Bytes)
				}
				unframed := u.Off + int64(u.Len) - streamHeader - int64(stream.UnitHeaderSize*(i+1))
				if unframed != int64(payload) || a.At != unframed {
					t.Fatalf("%s %v: unit %d (%v) ends at stream offset %d, %d unframed; engine has it at byte %d",
						b.App.Name, k, i, u.Method, u.Off+int64(u.Len), unframed, a.At)
				}
				body++
			}
			if body != len(arr) {
				t.Fatalf("%s %v: engine prices %d bodies, writer ships %d", b.App.Name, k, len(arr), body)
			}
			if w.Size() != streamHeader+int64(len(toc)*stream.UnitHeaderSize+payload) {
				t.Fatalf("%s %v: stream is %d bytes, framing + %d payload bytes is not", b.App.Name, k, w.Size(), payload)
			}

			sums := make([]int, len(p.prog.Classes))
			for _, u := range p.partPlan {
				sums[u.Class] += u.Len
			}
			for ci, c := range p.prog.Classes {
				if want := c.WireSize(); sums[ci] != want {
					t.Errorf("%s %v: class %s: partitioned units sum to %d bytes, file is %d", b.App.Name, k, c.Name, sums[ci], want)
				}
			}
		}
	}
}

// TestUnrestructuredOrderRejectedByPlan: an order over a program whose
// class files were not restructured for it is refused by restructure.Plan,
// and so by both of its readers — the stream writer and the simulator's
// engine construction — with the planner's one error.
func TestUnrestructuredOrderRejectedByPlan(t *testing.T) {
	b, err := suite(t).Bench("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	ord := b.byOrder[SCG].order
	_, perr := restructure.Plan(b.Prog, b.Ix, ord, nil)
	if perr == nil || !strings.Contains(perr.Error(), "not restructured") {
		t.Fatalf("Plan over the declaration-ordered program: err = %v, want the restructuring complaint", perr)
	}
	if _, err := stream.NewWriter(b.Prog, b.Ix, ord); err == nil || err.Error() != perr.Error() {
		t.Errorf("writer: err = %v, want the planner's %q", err, perr)
	}
	if _, err := prepare(b.Ix, ord, b.Prog); err == nil || err.Error() != perr.Error() {
		t.Errorf("engine construction: err = %v, want the planner's %q", err, perr)
	}
}

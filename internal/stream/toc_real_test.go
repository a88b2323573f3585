package stream_test

// The tests over every real unit table live outside package stream: the
// tables come from internal/pipeline, which imports stream.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/stream"
	"nonstrict/internal/synth"
)

var orders = []string{pipeline.OrderStatic, pipeline.OrderTrain, pipeline.OrderTest}

// realTable is the unit table of one real stream.
type realTable struct {
	name   string // "Jess/train"
	paper  bool   // one of the six paper apps, not a synthetic one
	order  string
	toc    []stream.UnitInfo
	table  []byte // toc as MarshalTOC wrote it
	stream int64  // the stream's size in bytes
	data   []byte // the stream itself
}

// realTables returns the unit tables of the six paper apps under each of
// the three order policies, then of a seeded synthetic suite under scg.
var realTables = sync.OnceValues(func() ([]realTable, error) {
	suite, _, err := synth.Suite(7, 4, synth.Params{})
	if err != nil {
		return nil, err
	}
	var out []realTable
	paper := apps.All()
	for i, app := range append(paper, suite...) {
		for _, order := range orders {
			if i >= len(paper) && order != pipeline.OrderStatic {
				continue
			}
			st, err := pipeline.Build(context.Background(), app, order)
			if err != nil {
				return nil, err
			}
			out = append(out, realTable{app.Name + "/" + order, i < len(paper), order, st.Units, st.TOC, int64(len(st.Data)), st.Data})
		}
	}
	return out, nil
})

func mustTables(t testing.TB) []realTable {
	t.Helper()
	tables, err := realTables()
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestParseTOCRoundTrip: ParseTOC(MarshalTOC(t)) is t for every real table —
// which includes the offsets, stored nowhere and rebuilt from lengths.
func TestParseTOCRoundTrip(t *testing.T) {
	for _, rt := range mustTables(t) {
		got, err := stream.ParseTOC(rt.table)
		if err != nil {
			t.Fatalf("%s: %v", rt.name, err)
		}
		if !reflect.DeepEqual(got, rt.toc) {
			t.Errorf("%s: parsed table differs from Writer.TOC()", rt.name)
		}
		if last := got[len(got)-1]; last.Off+int64(last.Len) != rt.stream {
			t.Errorf("%s: table ends at %d, stream at %d", rt.name, last.Off+int64(last.Len), rt.stream)
		}
	}
}

// TestTOCSizeBudget pins what the encoding is for: the table is fetched
// strictly before the stream, so it must stay a small fraction of it.
func TestTOCSizeBudget(t *testing.T) {
	for _, order := range orders {
		var table, streamed int64
		for _, rt := range mustTables(t) {
			if rt.paper && rt.order == order {
				table += int64(len(rt.table))
				streamed += rt.stream
			}
		}
		if ratio := float64(table) / float64(streamed); ratio > 0.06 {
			t.Errorf("%v: %d table bytes for %d stream bytes = %.3f, budget 0.06", order, table, streamed, ratio)
		}
	}
}

// TestParseTOCAllocs pins the parse cost the way TestDiscardNZeroAlloc
// pins the copy path: constant in the unit count.
func TestParseTOCAllocs(t *testing.T) {
	for _, rt := range mustTables(t) {
		if rt.name != "Jess/scg" {
			continue
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := stream.ParseTOC(rt.table); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ParseTOC: %d units, %d table bytes, %.0f allocations", len(rt.toc), len(rt.table), allocs)
		if allocs > 8 {
			t.Errorf("ParseTOC of %d units: %.0f allocations, budget 8", len(rt.toc), allocs)
		}
		return
	}
	t.Fatal("no Jess/scg table")
}

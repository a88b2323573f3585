package stream_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/stream"
	"nonstrict/internal/synth"
	"nonstrict/internal/vm"
)

// buildStaged takes app through the pipeline's stages one at a time, so
// the test holds the order and index the writer planned with.
func buildStaged(t *testing.T, app *apps.App, order string) (*pipeline.Run, *reorder.Order, *pipeline.Stream) {
	t.Helper()
	ctx := context.Background()
	r, err := pipeline.Compile(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	var prof *vm.Profile
	if order != pipeline.OrderStatic {
		if err := r.Link(ctx); err != nil {
			t.Fatal(err)
		}
		m, err := r.Profile(ctx, order == pipeline.OrderTrain, false)
		if err != nil {
			t.Fatal(err)
		}
		prof = m.Profile()
	}
	if err := r.Static(ctx); err != nil {
		t.Fatal(err)
	}
	o, err := r.Order(ctx, prof)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := r.Restructure(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Write(ctx, rp, o)
	if err != nil {
		t.Fatal(err)
	}
	return r, o, st
}

// TestWriterMatchesClassFiles checks the stream writer against the
// layout it implements, on the six apps under every order policy and on
// synth.Suite(1998, 8): every unit's payload is its restructure.Plan
// range of its whole serialized class file (what the writer once cut
// units out of), its header and table entry carry that range's length
// and checksum, the units abut, and the stream loads with its digest
// verified.
func TestWriterMatchesClassFiles(t *testing.T) {
	suite, _, err := synth.Suite(1998, 8, synth.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range append(apps.All(), suite...) {
		for _, order := range orders {
			r, o, st := buildStaged(t, app, order)
			rp := st.Program
			name := app.Name + "/" + order
			units, err := restructure.Plan(rp, r.Ix, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(units) != len(st.Units) {
				t.Fatalf("%s: %d units written, %d planned", name, len(st.Units), len(units))
			}
			files := make([][]byte, len(rp.Classes))
			for i, c := range rp.Classes {
				files[i] = c.Serialize()
			}
			off := int64(stream.UnitHeaderSize + 18) // stream header, then the first unit header
			for i, u := range units {
				ui := st.Units[i]
				want := files[u.Class][u.Off : u.Off+u.Len]
				if ui.Off != off || ui.Len != u.Len {
					t.Fatalf("%s unit %d: at %d+%d, want %d+%d", name, i, ui.Off, ui.Len, off, u.Len)
				}
				if got := st.Data[ui.Off : ui.Off+int64(ui.Len)]; !bytes.Equal(got, want) {
					t.Fatalf("%s unit %d (%v): payload differs from its class file's range", name, i, u.Method)
				}
				crc := stream.ChecksumPayload(want)
				hdr := st.Data[ui.Off-stream.UnitHeaderSize : ui.Off]
				if int(binary.BigEndian.Uint16(hdr[0:])) != u.Class || int(binary.BigEndian.Uint32(hdr[3:])) != u.Len ||
					binary.BigEndian.Uint32(hdr[7:]) != crc || ui.CRC != crc {
					t.Fatalf("%s unit %d: header %x and table CRC %08x, want class %d, %d bytes, CRC %08x",
						name, i, hdr, ui.CRC, u.Class, u.Len, crc)
				}
				off += int64(u.Len) + stream.UnitHeaderSize
			}
			if want := off - stream.UnitHeaderSize; int64(len(st.Data)) != want {
				t.Fatalf("%s: stream is %d bytes, units end at %d", name, len(st.Data), want)
			}
			l := stream.NewLoader(rp.Name, rp.MainClass, nil)
			if err := l.Load(bytes.NewReader(st.Data), nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !l.Integrity().DigestVerified {
				t.Errorf("%s: stream digest not verified", name)
			}
		}
	}
}

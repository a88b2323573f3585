package stream

import (
	"io"
	"net"
	"testing"
)

// shapedRead pumps total bytes through a shaped pipe and returns how
// many arrived before the first error (if any).
func shapedRead(t *testing.T, link LinkClass, seed uint64, total int) (int, error) {
	t.Helper()
	cl, srv := net.Pipe()
	go func() {
		buf := make([]byte, 4096)
		left := total
		for left > 0 {
			n := len(buf)
			if n > left {
				n = left
			}
			if _, err := srv.Write(buf[:n]); err != nil {
				return
			}
			left -= n
		}
		srv.Close()
	}()
	// Enormous scale: schedule decisions intact, sleeps negligible.
	shaped := link.Shape(cl, seed, 1e9)
	defer shaped.Close()
	got := 0
	buf := make([]byte, 4096)
	for {
		n, err := shaped.Read(buf)
		got += n
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return got, err
		}
	}
}

// TestShapeLossDeterministic: the injected reset position is a pure
// function of (link, seed) — the per-connection schedule contract the
// fleet's determinism rests on.
func TestShapeLossDeterministic(t *testing.T) {
	lossy := LinkClass{Name: "lossy", RTT: 1, Bandwidth: 1 << 30, LossEvery: 4 << 10}
	n1, err1 := shapedRead(t, lossy, 5, 64<<10)
	if err1 == nil {
		t.Fatalf("no loss injected across %d bytes (mean %d)", 64<<10, lossy.LossEvery)
	}
	n2, err2 := shapedRead(t, lossy, 5, 64<<10)
	if err2 == nil || n1 != n2 {
		t.Fatalf("same seed: loss at %d then %d bytes", n1, n2)
	}
	if n1 < lossy.LossEvery/2 || n1 >= 2*lossy.LossEvery {
		t.Fatalf("loss at %d bytes, outside the drawn range for mean %d", n1, lossy.LossEvery)
	}
	n3, _ := shapedRead(t, lossy, 6, 64<<10)
	if n3 == n1 {
		t.Fatalf("different seeds injected loss at the same byte %d", n1)
	}
}

// TestShapeLossless: a lossless link delivers everything intact.
func TestShapeLossless(t *testing.T) {
	got, err := shapedRead(t, LinkT1, 9, 32<<10)
	if err != nil || got != 32<<10 {
		t.Fatalf("lossless link delivered %d of %d bytes, err %v", got, 32<<10, err)
	}
}

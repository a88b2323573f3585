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

// TestShapeLossless: a shaped link delivers every byte intact.
func TestShapeLossless(t *testing.T) {
	got, err := shapedRead(t, LinkT1, 9, 32<<10)
	if err != nil || got != 32<<10 {
		t.Fatalf("shaped link delivered %d of %d bytes, err %v", got, 32<<10, err)
	}
}

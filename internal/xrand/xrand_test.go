package xrand

import "testing"

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("divergence at step %d", i)
		}
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	a, b := New(0), New(0)
	if a.Uint64() != b.Uint64() {
		t.Fatal("zero seed not deterministic")
	}
	if v := New(0).Uint64(); v == 0 {
		t.Fatal("zero seed produced zero state")
	}
}

func TestIntnRangeAndSpread(t *testing.T) {
	r := New(7)
	seen := make(map[int]int)
	const n, trials = 10, 10000
	for i := 0; i < trials; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for v := 0; v < n; v++ {
		if seen[v] < trials/n/3 {
			t.Errorf("value %d badly underrepresented: %d", v, seen[v])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63NonNegative(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		if r.Int63() < 0 {
			t.Fatal("negative Int63")
		}
	}
}

func TestBytes(t *testing.T) {
	b := New(5).Bytes(256)
	if len(b) != 256 {
		t.Fatalf("len = %d", len(b))
	}
	distinct := make(map[byte]bool)
	for _, v := range b {
		distinct[v] = true
	}
	if len(distinct) < 100 {
		t.Errorf("only %d distinct byte values in 256 draws", len(distinct))
	}
}

// TestMix64 pins the finalizer to splitmix64's published constants:
// 0xe220a8397b1dcdaf is that generator's first output from seed 0. The
// fleet's client seeds, synth's stage seeds and the ring's placement are
// all functions of these bits.
func TestMix64(t *testing.T) {
	for in, want := range map[uint64]uint64{
		0:                  0,
		1:                  0x5692161d100b05e5,
		0x9E3779B97F4A7C15: 0xe220a8397b1dcdaf,
		^uint64(0):         0xb4d055fcf2cbbd7b,
	} {
		if got := Mix64(in); got != want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", in, got, want)
		}
	}
}

package classfile

import (
	"fmt"
	"testing"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/xrand"
)

// parseNoPanic parses data along the loader's path — ParseGlobal, then
// the bodies the data holds cut at the parsed layout's offsets and
// decoded — and converts any panic into a test failure carrying the
// mutation that caused it.
func parseNoPanic(t *testing.T, data []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parse panicked on %s: %v", what, r)
		}
	}()
	c, l, err := ParseGlobal(data)
	if err != nil {
		return // rejected, fine
	}
	if l.FileSize <= len(data) {
		cutBodies(c, l, data)
		for _, m := range c.Methods {
			if _, err := bytecode.Decode(m.Code); err != nil {
				return // rejected, fine
			}
		}
	}
	// If the bytes were accepted, the class must round-trip without
	// panicking either.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("re-Serialize panicked on %s: %v", what, r)
		}
	}()
	_ = c.Serialize()
}

// TestParseNeverPanicsOnCorruption flips bytes, truncates, and splices
// random garbage into a valid class file; parsing along the loader's path
// must always return an error or a consistent class, never panic.
func TestParseNeverPanicsOnCorruption(t *testing.T) {
	base := buildSample().Serialize()
	rnd := xrand.New(0xBADC0DE)

	// Single-byte flips at every offset.
	for off := 0; off < len(base); off++ {
		mut := append([]byte(nil), base...)
		mut[off] ^= byte(1 + rnd.Intn(255))
		parseNoPanic(t, mut, fmt.Sprintf("flip@%d", off))
	}
	// Random multi-byte corruption.
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), base...)
		for k := 0; k < 1+rnd.Intn(8); k++ {
			mut[rnd.Intn(len(mut))] = byte(rnd.Intn(256))
		}
		parseNoPanic(t, mut, fmt.Sprintf("multi-flip trial %d", trial))
	}
	// Truncations.
	for cut := 0; cut <= len(base); cut += 1 + rnd.Intn(3) {
		parseNoPanic(t, base[:cut], fmt.Sprintf("truncate@%d", cut))
	}
	// Random garbage.
	for trial := 0; trial < 200; trial++ {
		parseNoPanic(t, rnd.Bytes(1+rnd.Intn(400)), fmt.Sprintf("garbage trial %d", trial))
	}
}

package stream

import "sync"

// Buffer pools for the transfer hot paths. The fetch client's skip path,
// the fault layer's corruption copy, and the loader's unit assembly all
// used to allocate a fresh buffer per call; under a concurrent server
// those allocations dominate the serve profile, so they are recycled
// here. Buffers above maxPooledBuf are left to the garbage collector —
// pooling them would pin rare worst-case allocations forever.
const maxPooledBuf = 1 << 20

// copyBufSize is the scratch size for skip/copy loops (matches
// io.Copy's internal buffer).
const copyBufSize = 32 * 1024

// copyBufPool recycles fixed-size scratch buffers for byte-discard,
// corruption-copy and proxy-copy loops.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, copyBufSize)
		return &b
	},
}

// GetCopyBuf returns a pooled copy buffer of exactly 32 KiB for one
// read-then-write loop; hand it back with PutCopyBuf once nothing
// references its bytes. The cluster router streams response bodies
// through it, so a proxied stream shares the fetch client's pool.
func GetCopyBuf() *[]byte { return copyBufPool.Get().(*[]byte) }

// PutCopyBuf recycles a buffer obtained from GetCopyBuf.
func PutCopyBuf(bp *[]byte) { copyBufPool.Put(bp) }

// payloadPool recycles variable-size unit-payload buffers for the
// loader. A pooled buffer may only be returned when nothing retains a
// slice of it — installed units keep their payload forever and must
// never be put back.
var payloadPool sync.Pool

// getPayloadBuf returns a buffer of length n, reusing a pooled one when
// its capacity suffices.
func getPayloadBuf(n int) []byte {
	if v := payloadPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this unit but still fine for smaller ones: put
		// it back. Dropping it here silently drains the pool whenever
		// unit sizes are mixed — every large unit costs one pooled small
		// buffer and the steady state degenerates to make-per-unit.
		payloadPool.Put(v)
	}
	return make([]byte, n)
}

// putPayloadBuf recycles a buffer obtained from getPayloadBuf. Callers
// must guarantee no live references into b remain.
func putPayloadBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	payloadPool.Put(&b)
}

package stream

import (
	"math/bits"
	"sync"

	"nonstrict/internal/verify"
)

// Buffer pools for the transfer hot paths. The fetch client's skip path,
// the fault layer's corruption copy, and the loader's unit assembly all
// used to allocate a fresh buffer per call; under a concurrent server
// those allocations dominate the serve profile, so they are recycled
// here. Buffers above maxPooledBuf are left to the garbage collector —
// pooling them would pin rare worst-case allocations forever.
const maxPooledBuf = 1 << maxPooledLog

const maxPooledLog = 20

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

// payloadPools recycle variable-size unit-payload buffers for the
// loader, one pool per size class: a buffer of capacity c lives in class
// bits.Len(c), so the classes' capacities are [2^(k-1), 2^k), and a
// request for n bytes looks only in class bits.Len(n). A buffer there
// too small for the request is dropped for the exactly-sized one the
// request allocates: each class only ever trades a buffer for a larger
// one of its own class, so it settles on buffers that fit its largest
// unit, and a unit of another size never costs it one. A pooled buffer
// may only be returned when nothing retains a slice of it — installed
// units keep their payload forever and must never be put back, which is
// also why a buffer is allocated at exactly the size asked for and never
// rounded up to its class. The largest class is
// bits.Len(maxPooledBuf) = maxPooledLog+1.
var payloadPools [maxPooledLog + 2]sync.Pool

// getPayloadBuf returns a buffer of length n, reusing a pooled one of
// its size class when that one holds n bytes. box is the *[]byte the
// pool held it in (nil when there was none), for putPayloadBuf to reuse,
// so that a buffer cycling through the pool costs no allocation at all.
func getPayloadBuf(n int) (b []byte, box *[]byte) {
	if n > 0 && n <= maxPooledBuf {
		if v := payloadPools[bits.Len(uint(n))].Get(); v != nil {
			box = v.(*[]byte)
			if b := *box; cap(b) >= n {
				return b[:n], box
			}
		}
	}
	return make([]byte, n), box
}

// putPayloadBuf recycles a buffer obtained from getPayloadBuf into the
// class of its capacity, in box when there is one. Callers must
// guarantee no live references into b remain.
func putPayloadBuf(b []byte, box *[]byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	payloadPools[bits.Len(uint(cap(b)))].Put(box)
}

// scratchPool recycles the method verifier's working memory from one
// Loader to the next, so a session's verifier starts at the size the
// last one grew to instead of growing again from zero. A Loader holds
// one while its main stream runs (see Loader.verifier). The receive path
// owns this pool; the build path keeps no package-level pool.
var scratchPool = sync.Pool{New: func() any { return new(verify.Scratch) }}

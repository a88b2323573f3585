package stream

import (
	"net"
	"time"

	"nonstrict/internal/xrand"
)

// LinkClass is a parameterized latency/bandwidth schedule — the
// link-trace side of the chaos layer. Fault injects byte-positional
// damage on the server side of a connection; LinkClass shapes the
// client side of one: first-byte latency with seeded jitter and
// bandwidth pacing at MTU-sized reads, the conditions the paper's
// transfer model sweeps (§2: a 128 Kb/s modem-class link against
// LAN-class links). The jitter is drawn from a per-connection xrand
// stream, so a (link, seed, conn) triple always produces the same
// schedule no matter how many thousands of connections run
// concurrently.
type LinkClass struct {
	// Name identifies the class in results and logs.
	Name string
	// RTT is the first-byte delay per connection (round-trip setup).
	RTT time.Duration
	// Jitter bounds the seeded ± perturbation applied to RTT.
	Jitter time.Duration
	// Bandwidth is the downstream rate in bytes/second (0 = unpaced).
	Bandwidth int
}

// The built-in link classes. Modem matches the paper's 14.4–128 Kb/s
// regime, T1 its fast-link contrast.
var (
	LinkModem = LinkClass{Name: "modem", RTT: 120 * time.Millisecond,
		Jitter: 20 * time.Millisecond, Bandwidth: 7_000}
	LinkT1 = LinkClass{Name: "t1", RTT: 30 * time.Millisecond,
		Jitter: 5 * time.Millisecond, Bandwidth: 193_000}
)

// Shape wraps conn's read side with this link's schedule. seed selects
// the connection's private jitter draw; scale divides every sleep, so a
// simulation can run the modem's schedule at 1000× wall speed without
// changing any schedule decision (the shape of the pacing is
// scale-independent). scale <= 0 means real time.
func (lc LinkClass) Shape(conn net.Conn, seed uint64, scale float64) net.Conn {
	if scale <= 0 {
		scale = 1
	}
	delay := lc.RTT
	if lc.Jitter > 0 {
		delay += time.Duration(xrand.New(seed).Intn(int(2*lc.Jitter))) - lc.Jitter
		if delay < 0 {
			delay = 0
		}
	}
	return &shapedConn{Conn: conn, link: lc, scale: scale, delay: delay}
}

// shapedConn applies a LinkClass schedule to reads. Writes (requests
// are small) pass through unshaped. All mutable state is owned by this
// one connection — nothing is shared across the fleet.
type shapedConn struct {
	net.Conn
	link  LinkClass
	scale float64
	delay time.Duration // pending first-byte delay; 0 after first read
}

// linkMTU caps one shaped read, so pacing sleeps stay fine-grained.
const linkMTU = 1460

func (c *shapedConn) Read(p []byte) (int, error) {
	if c.delay > 0 {
		c.sleep(c.delay)
		c.delay = 0
	}
	if len(p) > linkMTU {
		p = p[:linkMTU]
	}
	n, err := c.Conn.Read(p)
	if n > 0 && c.link.Bandwidth > 0 {
		c.sleep(time.Duration(n) * time.Second / time.Duration(c.link.Bandwidth))
	}
	return n, err
}

func (c *shapedConn) sleep(d time.Duration) {
	d = time.Duration(float64(d) / c.scale)
	if d > 0 {
		time.Sleep(d)
	}
}

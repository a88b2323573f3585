package stream

import (
	"fmt"
	"net"
	"time"

	"nonstrict/internal/xrand"
)

// LinkClass is a parameterized latency/bandwidth/loss schedule — the
// link-trace side of the chaos layer. Fault injects byte-positional
// damage on the server side of a connection; LinkClass shapes the
// client side of one: first-byte latency with seeded jitter, bandwidth
// pacing at MTU-sized reads, and seeded connection-killing loss events,
// the conditions the paper's transfer model sweeps (§2: a 128 Kb/s
// modem-class link against LAN-class links). Every draw comes from a
// per-connection xrand stream, so a (link, seed, conn) triple always
// produces the same schedule no matter how many thousands of
// connections run concurrently.
type LinkClass struct {
	// Name identifies the class in fleet results, logs and injected
	// loss errors.
	Name string
	// RTT is the first-byte delay per connection (round-trip setup).
	RTT time.Duration
	// Jitter bounds the seeded ± perturbation applied to RTT.
	Jitter time.Duration
	// Bandwidth is the downstream rate in bytes/second (0 = unpaced).
	Bandwidth int
	// LossEvery is the mean byte distance between injected connection
	// resets (0 = lossless). Actual distances are drawn uniformly from
	// [LossEvery/2, 3·LossEvery/2) per connection.
	LossEvery int
}

// The built-in link classes. Modem matches the paper's 14.4–128 Kb/s
// regime, T1 its fast-link contrast; LTE and Satellite extend the sweep
// to bursty-loss and high-latency regimes the paper's model predicts
// but could not measure.
var (
	LinkModem = LinkClass{Name: "modem", RTT: 120 * time.Millisecond,
		Jitter: 20 * time.Millisecond, Bandwidth: 7_000}
	LinkT1 = LinkClass{Name: "t1", RTT: 30 * time.Millisecond,
		Jitter: 5 * time.Millisecond, Bandwidth: 193_000}
	LinkLTE = LinkClass{Name: "lte", RTT: 50 * time.Millisecond,
		Jitter: 30 * time.Millisecond, Bandwidth: 1_500_000, LossEvery: 256 << 10}
	LinkSatellite = LinkClass{Name: "satellite", RTT: 600 * time.Millisecond,
		Jitter: 40 * time.Millisecond, Bandwidth: 250_000}
)

// Shape wraps conn's read side with this link's schedule. seed selects
// the connection's private jitter/loss stream; scale divides every
// sleep, so a simulation can run the modem's schedule at 1000× wall
// speed without changing any schedule decision (the byte positions of
// loss events and the shape of the pacing are scale-independent).
// scale <= 0 means real time.
func (lc LinkClass) Shape(conn net.Conn, seed uint64, scale float64) net.Conn {
	if scale <= 0 {
		scale = 1
	}
	r := xrand.New(seed)
	delay := lc.RTT
	if lc.Jitter > 0 {
		delay += time.Duration(r.Intn(int(2*lc.Jitter))) - lc.Jitter
		if delay < 0 {
			delay = 0
		}
	}
	c := &shapedConn{Conn: conn, link: lc, scale: scale, delay: delay, nextLoss: -1}
	if lc.LossEvery > 0 {
		c.nextLoss = int64(lc.LossEvery/2 + r.Intn(lc.LossEvery))
	}
	c.r = r
	return c
}

// shapedConn applies a LinkClass schedule to reads. Writes (requests
// are small) pass through unshaped. All mutable state is owned by this
// one connection — nothing is shared across the fleet.
type shapedConn struct {
	net.Conn
	link     LinkClass
	r        *xrand.Rand
	scale    float64
	delay    time.Duration // pending first-byte delay; 0 after first read
	read     int64
	nextLoss int64 // byte position of the next injected reset; -1 = never
}

// linkMTU caps one shaped read, so pacing sleeps stay fine-grained and
// a loss event lands near its drawn byte position.
const linkMTU = 1460

func (c *shapedConn) Read(p []byte) (int, error) {
	if c.delay > 0 {
		c.sleep(c.delay)
		c.delay = 0
	}
	if c.nextLoss >= 0 && c.read >= c.nextLoss {
		// The seeded loss event: kill the connection mid-body. The
		// fetch layer sees a reset and resumes with a Range request on
		// a fresh (freshly shaped) connection.
		c.Conn.Close()
		return 0, fmt.Errorf("link %s: injected loss after %d bytes", c.link.Name, c.read)
	}
	if len(p) > linkMTU {
		p = p[:linkMTU]
	}
	n, err := c.Conn.Read(p)
	c.read += int64(n)
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

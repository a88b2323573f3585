// Package live runs a program while its bytes are still arriving — the
// paper's non-strict execution, for real rather than simulated. It
// pipelines FetchClient → stream.Loader → vm in goroutines: the fetch
// goroutine streams the interleaved virtual file and feeds the loader,
// whose verified classes flow into the VM's one linker (vm.NewLive), while
// the VM goroutine executes. First invocation of a method blocks at the
// availability gate until the loader fires MethodReady; a method wanted
// out of predicted order is demand-fetched through a byte-range request
// against the writer's unit table (§5.1's misprediction correction
// applied to the §5.2 virtual file). The table is not part of the
// virtual file: it is fetched beside the stream, and only a correction
// waits for it, never the first invocation. Everything but the VM is a
// Session (session.go), which any executor can drive through its gate —
// Run puts the VM behind it, the fleet a need-trace replay. The session
// records wall-clock first-invocation latencies and overlap statistics,
// the measured counterparts of the cycle simulator's predictions.
package live

import (
	"context"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/obs"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// Options configures one overlapped run.
type Options struct {
	// URL is the interleaved stream's address.
	URL string
	// TOCURL is the writer's unit table address, fetched beside the
	// stream; empty disables demand fetches (every gate wait then rides
	// the main stream).
	TOCURL string
	// Name and MainClass identify the program (as NewLoader takes them).
	Name      string
	MainClass string
	// Client transfers the stream; nil uses a default FetchClient.
	Client *stream.FetchClient
	// GateTimeout bounds each availability-gate wait (AwaitMethod /
	// AwaitClass). It bounds nothing after execution: Close cuts the
	// stream's never-executed tail instead of waiting for it. Zero means
	// DefaultGateTimeout; negative disables the deadline entirely.
	GateTimeout time.Duration
	// Obs, when non-nil, records gate crossings, demand fetches,
	// repairs, degradation, first invocations, and the loader's
	// unit-level events for tracing. The fetch client's recorder is NOT
	// set from here — a shared Client may be serving concurrent runs —
	// so callers who also want transfer events (retries, resumes) set
	// Client.Obs themselves before the first request.
	Obs *obs.Recorder
	// Run is passed to the VM.
	Run vm.Options
}

// Wait records one first-invocation gate crossing.
type Wait struct {
	// Method is the invoked method.
	Method classfile.Ref
	// At is when the invocation happened, measured from run start.
	At time.Duration
	// Wait is how long the VM blocked before the method's bytes were in
	// (zero when the stream was ahead of execution).
	Wait time.Duration
	// Transfer, Repair, and Gate decompose Wait: time blocked while the
	// method's bytes were still in flight (main stream or demand fetch),
	// time blocked inside integrity-repair re-fetches of corrupt units,
	// and the residual between the bytes being ready and the waiter
	// actually proceeding (wakeup latency, lock handoff). They sum to
	// Wait exactly, by construction.
	Transfer, Repair, Gate time.Duration
	// Demand reports that the bytes came via a demand fetch rather than
	// in predicted stream order.
	Demand bool
}

// Stats is the measured outcome of an overlapped run.
type Stats struct {
	// Transfer snapshots the fetch client's counters.
	Transfer stream.FetchStats
	// StreamBytes is main-stream bytes consumed (headers included) before
	// the stream ended, at EOF or at the cut when execution finished;
	// DemandBytes is payload bytes that arrived via demand fetches.
	StreamBytes, DemandBytes int64
	// DemandFetches counts range requests issued for out-of-order needs;
	// Mispredicts counts gate waits that triggered them.
	DemandFetches, Mispredicts int
	// FirstRunnable is when the entry method's bytes were in — the
	// measured invocation latency of the paper's Table 4.
	FirstRunnable time.Duration
	// ExecDone and TransferDone mark, from run start, when execution
	// finished and when the main stream ended: at EOF, or at the cut
	// Close makes once execution is over, whichever came first.
	ExecDone, TransferDone time.Duration
	// StallTime is the total time execution spent blocked at the gate:
	// method waits (each listed in Waits) and class-resolution waits
	// (AwaitClass, the entry class's included), which Waits does not list
	// and no Transfer/Repair/Gate split covers. So StallTime is at least
	// the sum of Waits, and on a slow link it is well above it.
	StallTime time.Duration
	// Waits lists every first invocation in execution order.
	Waits []Wait
	// Classes and Methods count what actually arrived and linked.
	Classes, Methods int
	// Integrity snapshots the loader's verification counters: corrupt
	// units detected, repaired, quarantined. Its DigestVerified is true
	// exactly when the stream completed (and its whole-stream digest
	// matched) before execution finished.
	Integrity stream.IntegrityStats
	// Refetches counts byte-range re-fetches issued to replace payloads
	// that arrived corrupt (repair-hook fetches plus demand retries).
	Refetches int
	// Degraded holds the main stream's terminal error when it failed
	// permanently mid-run and the remaining units were demand-fetched
	// instead; empty when the stream completed normally.
	Degraded string
}

// Overlap is the fraction of the execution window not spent stalled —
// the measured analog of sim.Result.Overlap. It is always in [0, 1]:
// a zero or negative execution window (a run that failed before the
// clock meaningfully advanced) yields 0 rather than NaN or ±Inf, and
// measurement jitter that lands StallTime outside the window is
// clamped rather than reported as a nonsense ratio.
func (s *Stats) Overlap() float64 {
	if s.ExecDone <= 0 {
		return 0
	}
	o := 1 - float64(s.StallTime)/float64(s.ExecDone)
	switch {
	case o < 0:
		return 0
	case o > 1:
		return 1
	}
	return o
}

// Attribution decomposes one method's measured first-invocation
// latency — run start to the method's body entering execution — into
// where the time went. Execute + Transfer + Repair + Gate == Latency
// exactly, by construction: the three wait components accumulate every
// gate crossing up to and including this one, and Execute is whatever
// the run spent outside the method gate (executing, linking, and any
// class-global gate waits).
type Attribution struct {
	// Method is the invoked method.
	Method classfile.Ref
	// Latency is run start → first instruction of Method.
	Latency time.Duration
	// Execute is time spent off the method gate before this invocation.
	Execute time.Duration
	// Transfer is cumulative gate time spent waiting on bytes in flight.
	Transfer time.Duration
	// Repair is cumulative gate time spent inside integrity repairs.
	Repair time.Duration
	// Gate is cumulative residual gate overhead (wakeup, lock handoff).
	Gate time.Duration
	// Demand marks that this method's bytes came via a demand fetch.
	Demand bool
}

// Attributions derives the per-method stall attribution from the run's
// gate crossings, in execution order.
func (s *Stats) Attributions() []Attribution {
	out := make([]Attribution, 0, len(s.Waits))
	var waited, transfer, repair, gate time.Duration
	for _, w := range s.Waits {
		exec := w.At - waited
		if exec < 0 {
			exec = 0 // clock-granularity slop; waits cannot overlap
		}
		transfer += w.Transfer
		repair += w.Repair
		gate += w.Gate
		waited += w.Wait
		out = append(out, Attribution{
			Method:   w.Method,
			Latency:  w.At + w.Wait,
			Execute:  exec,
			Transfer: transfer,
			Repair:   repair,
			Gate:     gate,
			Demand:   w.Demand,
		})
	}
	return out
}

// attributeWait splits one gate wait [began, woke) into its transfer /
// repair / gate components. ready is when the awaited bytes became
// usable; repairs are the completed repair windows. The three parts sum
// to woke-began exactly: arrival time before ready is transfer except
// where a repair window overlaps it, and everything after ready is
// residual gate overhead.
func attributeWait(began, woke, ready time.Duration, repairs []span) (transfer, repair, gate time.Duration) {
	if ready < began {
		ready = began
	}
	if ready > woke {
		ready = woke
	}
	for _, s := range repairs {
		from, to := s.From, s.To
		if from < began {
			from = began
		}
		if to > ready {
			to = ready
		}
		if to > from {
			repair += to - from
		}
	}
	if arrive := ready - began; repair > arrive {
		repair = arrive
	}
	transfer = ready - began - repair
	gate = woke - ready
	return transfer, repair, gate
}

// span is a half-open window [From, To) measured from run start.
type span struct{ From, To time.Duration }

// Run executes the program at opts.URL while it streams in, returning
// the finished machine and the measured overlap statistics: a Session
// with the VM's linker (vm.NewLive) behind it. The machine is valid
// (with partial profile) even when err is non-nil.
func Run(ctx context.Context, opts Options) (*vm.Machine, *Stats, error) {
	s := newSession(opts)
	lv := vm.NewLive(opts.Name, opts.MainClass, s)
	// A class arrives after the stream header, so the first one sizes the
	// linker's tables from the header's unit count.
	s.open(ctx, func(c *classfile.Class) error { return lv.AddClass(c, s.loader.Units()) })
	runOpts := opts.Run
	if s.obs != nil {
		inner := runOpts.OnFirstUse
		runOpts.OnFirstUse = func(ref classfile.Ref) {
			s.obs.Emit(obs.FirstInvocation, ref.String(), 0, 0)
			if inner != nil {
				inner(ref)
			}
		}
	}
	m, runErr := lv.Run(runOpts)
	// A session error that mattered reached the VM through the gate; one
	// that no gate crossing saw cannot change the program's result.
	st, _ := s.Close()
	return m, st, runErr
}

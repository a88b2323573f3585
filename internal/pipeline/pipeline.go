// Package pipeline is the one place a program is taken from source to a
// served virtual file: compile → link → profiled run → cfg/static order →
// first-use order → restructure → stream write. Every caller that needs a
// first-use order or a stream runs a prefix or a subset of these stages:
//
//   - Build (the code server, the synth listing, the checker's fixture)
//     runs compile, static, order, restructure, write for the static
//     order, and adds link plus exactly one profiled run — the input the
//     order is named after, run beside static — for a profile-guided one.
//   - experiments.LoadCtx (the paper tables) runs compile, link, both
//     profiled runs, static, then order and restructure once per predictor.
//   - Static, the static stage's body, runs over a program compiled
//     elsewhere; outside this package its callers are the runnable
//     examples ExampleRun (internal/sim) and ExampleNewParallel
//     (internal/transfer).
//
// The static stage keeps no graph: each method's CFG is built when the
// §4.1 walk first reaches the method and is reused for the next method
// the walk enters at the same call depth (reorder.StaticLazy), so a
// build holds the graphs of one call chain, never the whole program's.
//
// Stages are deterministic, and all but two run one after another: in a
// profile-guided Build the static stage runs beside the profiled run,
// since neither reads the other's output. Each stage checks ctx before it
// starts and adds its wall-clock time to the run's Durations, so a caller
// can say where a build's time went without timing anything itself; for
// a profile-guided Build the stages therefore sum to more than its wall
// time, by up to the shorter of static and profile.
package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// Order policies: which first-use prediction a built stream follows.
const (
	// OrderStatic is the §4.1 static call-graph prediction: computable
	// from the program alone, no linking and no profiling run.
	OrderStatic = "scg"
	// OrderTrain and OrderTest are the §4.2 profile-guided predictions;
	// building one executes the program once, on the named input.
	OrderTrain = "train"
	OrderTest  = "test"
)

// Stage names one step of the pipeline.
type Stage int

const (
	StageCompile     Stage = iota // IR → class files
	StageLink                     // resolve the program for execution
	StageProfile                  // one VM run and its self-check
	StageStatic                   // static call-graph order over per-method CFGs
	StageOrder                    // first-use order from a profile, validated
	StageRestructure              // class files rewritten into first-use order
	StageWrite                    // interleaved stream + unit table
	NumStages
)

var stageNames = [NumStages]string{"compile", "link", "profile", "static", "order", "restructure", "write"}

func (s Stage) String() string { return stageNames[s] }

// Durations is wall-clock time per stage; a stage that ran more than once
// holds the sum, one that did not run holds zero.
type Durations [NumStages]time.Duration

// Total is the time spent in all stages.
func (d Durations) Total() time.Duration {
	var t time.Duration
	for _, v := range d {
		t += v
	}
	return t
}

// Run carries one program through the stages. Compile starts one; each
// stage method fills the fields later stages read.
type Run struct {
	App  *apps.App
	Prog *classfile.Program
	// Linked is set by Link.
	Linked *vm.Linked
	// Ix is the program's one method index: the linker's when the run
	// links, which numbers methods as IndexMethods does, else built by
	// Static.
	Ix *classfile.Index
	// SCG is set by Static.
	SCG *reorder.Order
	// Times is what each stage has cost so far.
	Times Durations

	name string // for errors
}

// stage runs f as stage s: not at all once ctx is done, timed otherwise.
func (r *Run) stage(ctx context.Context, s Stage, f func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	err := f()
	r.Times[s] += time.Since(start)
	if err != nil {
		return fmt.Errorf("pipeline: %s: %s: %w", r.name, s, err)
	}
	return nil
}

// Compile starts a run from an app's IR.
func Compile(ctx context.Context, app *apps.App) (*Run, error) {
	r := &Run{App: app, name: app.Name}
	err := r.stage(ctx, StageCompile, func() (err error) {
		r.Prog, err = jir.Compile(app.IR)
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Link resolves the program for execution; Profile needs it.
func (r *Run) Link(ctx context.Context) error {
	return r.stage(ctx, StageLink, func() (err error) {
		if r.Linked, err = vm.Link(r.Prog); err != nil {
			return err
		}
		r.Ix = r.Linked.Index()
		return nil
	})
}

// Profile executes the linked program on the app's train or test input
// and checks the result against the app's reference; trace additionally
// records the segment trace the simulator replays.
func (r *Run) Profile(ctx context.Context, train, trace bool) (*vm.Machine, error) {
	var m *vm.Machine
	err := r.stage(ctx, StageProfile, func() (err error) {
		input := "test"
		if train {
			input = "train"
		}
		if m, err = r.Linked.Run(vm.Options{Args: r.App.Args(train), Trace: trace}); err != nil {
			return fmt.Errorf("%s run: %w", input, err)
		}
		if err := r.App.Check(m, train); err != nil {
			return fmt.Errorf("%s self-check: %w", input, err)
		}
		return nil
	})
	return m, err
}

// Static computes the static call-graph order — itself an order, and
// the fallback every profile-guided order uses for methods its profile
// never saw.
func (r *Run) Static(ctx context.Context) error {
	return r.stage(ctx, StageStatic, func() (err error) {
		if r.Ix == nil {
			r.Ix = r.Prog.IndexMethods()
		}
		r.SCG, err = Static(r.Ix)
		return err
	})
}

// Static is the static stage over an indexed program: the §4.1 static
// call-graph order. A method's CFG lives only while the walk is inside
// the method (reorder.StaticLazy), so the stage keeps no graph.
func Static(ix *classfile.Index) (*reorder.Order, error) {
	return reorder.StaticLazy(ix)
}

// Order returns the validated first-use order a profile predicts, or the
// static order itself for a nil profile.
func (r *Run) Order(ctx context.Context, prof *vm.Profile) (*reorder.Order, error) {
	o := r.SCG
	err := r.stage(ctx, StageOrder, func() error {
		if prof != nil {
			o = reorder.FromProfile(r.Ix, prof.FirstUse, r.SCG)
		}
		return o.Validate(r.Ix)
	})
	return o, err
}

// Restructure rewrites the class files into o's first-use sequence.
func (r *Run) Restructure(ctx context.Context, o *reorder.Order) (*classfile.Program, error) {
	var rp *classfile.Program
	err := r.stage(ctx, StageRestructure, func() error {
		rp = restructure.Apply(r.Prog, r.Ix, o)
		return nil
	})
	return rp, err
}

// Stream is a written virtual file and everything about it a server or a
// client harness needs.
type Stream struct {
	// Program is the restructured program the stream carries.
	Program *classfile.Program
	// Data is the interleaved stream (header + units).
	Data []byte
	// Units locates every unit in Data; TOC is its wire encoding.
	Units []stream.UnitInfo
	TOC   []byte
	// Stages is what each stage of the build cost. Stages that ran side
	// by side each count in full, so Stages.Total() can exceed the
	// build's wall time.
	Stages Durations
}

// Write serializes the restructured program rp as an interleaved stream
// in o's order, with its unit table.
func (r *Run) Write(ctx context.Context, rp *classfile.Program, o *reorder.Order) (*Stream, error) {
	s := &Stream{Program: rp}
	err := r.stage(ctx, StageWrite, func() error {
		w, err := stream.NewWriter(rp, r.Ix, o)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		buf.Grow(int(w.Size()))
		if _, err := w.WriteTo(&buf); err != nil {
			return err
		}
		s.Data, s.Units = buf.Bytes(), w.TOC()
		s.TOC, err = stream.MarshalTOC(s.Units)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.Stages = r.Times
	return s, nil
}

// Build takes app to a served stream under one order policy. The static
// order never links or executes the program; train and test link it and
// run it once, on the input the policy names, while the static stage
// runs on a second goroutine. A failed or cancelled build returns only
// after both have stopped, so it leaves nothing running.
func Build(ctx context.Context, app *apps.App, order string) (*Stream, error) {
	if order != OrderStatic && order != OrderTrain && order != OrderTest {
		return nil, fmt.Errorf("pipeline: unknown order policy %q (want %s, %s, or %s)",
			order, OrderStatic, OrderTrain, OrderTest)
	}
	r, err := Compile(ctx, app)
	if err != nil {
		return nil, err
	}
	var prof *vm.Profile
	if order == OrderStatic {
		if err := r.Static(ctx); err != nil {
			return nil, err
		}
	} else {
		if err := r.Link(ctx); err != nil {
			return nil, err
		}
		// Static reads only the linker's index, which Link has filled,
		// and Profile only the linked program, so the two run side by
		// side. Both have stopped
		// before Build returns, whichever of them failed.
		static := make(chan error, 1)
		go func() { static <- r.Static(ctx) }()
		m, err := r.Profile(ctx, order == OrderTrain, false)
		if serr := <-static; err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		prof = m.Profile()
	}
	o, err := r.Order(ctx, prof)
	if err != nil {
		return nil, err
	}
	rp, err := r.Restructure(ctx, o)
	if err != nil {
		return nil, err
	}
	return r.Write(ctx, rp, o)
}

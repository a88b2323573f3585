// Package synth is a seeded, deterministic generator of register-able
// benchmark apps. The six paper programs (internal/apps) are a fixed —
// and narrow — workload; synth widens the suite to arbitrarily many
// shapes by synthesizing programs with controllable structure: class
// count, methods per class, call-graph fan-out, hot-loop depth, the
// fraction of methods the inputs actually execute, and the code/data
// size distribution. Generated apps satisfy the exact same contract as
// the paper benchmarks (an *apps.App with train/test inputs and a
// self-check), so they flow through the existing compile → predict →
// restructure → stream → serve pipeline unchanged — register one with
// apps.Register and internal/server will build and serve it like any
// paper app.
//
// Everything is derived from Params.Seed through the substrate's xrand
// generator: the same parameters always produce byte-identical IR, and
// therefore a byte-identical class-file program and stream. The
// self-check is real: Generate compiles and executes the program on
// both inputs at generation time and pins the observed accumulator
// state, so any later run — including one reassembled from a streamed,
// restructured virtual file — is validated against a genuine execution.
package synth

import (
	"fmt"

	"nonstrict/internal/apps"
	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
	"nonstrict/internal/xrand"
)

// csMask keeps every accumulator in non-negative int64 range, like the
// paper apps' checksums.
const csMask = int64(1)<<61 - 1

// Params controls the shape of one generated app. The zero value of any
// field selects its default; Seed 0 is a valid (remapped) seed.
type Params struct {
	// Name is the app's registry name; empty means "synth-<seed>".
	Name string
	// Seed drives every structural and data choice.
	Seed uint64
	// Classes is the class count (default 4, minimum 1).
	Classes int
	// MethodsPerClass is the mean method count per class (default 12);
	// actual counts are drawn uniformly from [mean/2, 3*mean/2].
	MethodsPerClass int
	// Fanout is the mean extra call-graph out-degree of an executed
	// method beyond its spanning-tree edge (default 2).
	Fanout int
	// HotLoopDepth is the nesting depth of loop nests in hot methods
	// (default 2). Roughly a third of executed methods are hot.
	HotLoopDepth int
	// ExecFrac is the fraction of all methods the test input executes
	// (default 0.55). The train input executes a subset of those: some
	// methods are gated on the input level, mirroring the paper's
	// train-versus-test coverage divergence.
	ExecFrac float64
	// DataBytes is the approximate unused constant-pool data per class
	// (default 400 bytes), modelling the dead globals of Table 9.
	DataBytes int
	// BodyScale is the mean straight-line statement count mixed into a
	// method body (default 5); a seeded heavy tail multiplies some
	// bodies by 4, spreading the per-method code size distribution.
	BodyScale int
	// CPI is the simulated cycles-per-bytecode cost (default 500).
	CPI int64
}

// withDefaults resolves zero fields.
func (p Params) withDefaults() Params {
	if p.Classes <= 0 {
		p.Classes = 4
	}
	if p.MethodsPerClass <= 0 {
		p.MethodsPerClass = 12
	}
	if p.Fanout <= 0 {
		p.Fanout = 2
	}
	if p.HotLoopDepth <= 0 {
		p.HotLoopDepth = 2
	}
	if p.ExecFrac <= 0 || p.ExecFrac > 1 {
		p.ExecFrac = 0.55
	}
	if p.DataBytes <= 0 {
		p.DataBytes = 400
	}
	if p.BodyScale <= 0 {
		p.BodyScale = 5
	}
	if p.CPI <= 0 {
		p.CPI = 500
	}
	if p.Name == "" {
		p.Name = fmt.Sprintf("synth-%d", p.Seed)
	}
	return p
}

// Info reports what Generate built — the measured ground truth of one
// synthetic app, from its generation-time executions.
type Info struct {
	Name    string
	Params  Params
	Classes int
	// Methods is the total method count (cold methods included).
	Methods int
	// ExecutedTrain and ExecutedTest are the methods each input's run
	// actually invoked.
	ExecutedTrain, ExecutedTest int
	// CodeBytes is the compiled program's total class-file bytes.
	CodeBytes int
	// TrainInstrs and TestInstrs are the dynamic instruction counts.
	TrainInstrs, TestInstrs int64
}

// method is one planned method during generation.
type method struct {
	class, idx int
	name       string
	executed   bool // reachable under the test input
	testOnly   bool // gated on input level: test input only
	hot        bool // carries a loop nest
	callees    []int
}

// Generate synthesizes one app. The returned App is self-contained: its
// IR compiles, both inputs run to completion in the VM, and Check pins
// the accumulator state observed at generation time.
func Generate(p Params) (*apps.App, *Info, error) {
	p = p.withDefaults()
	r := xrand.New(mix(p.Seed, 0xA9))

	// Plan the class and method population.
	classes := make([]int, p.Classes) // methods per class
	total := 0
	for c := range classes {
		n := p.MethodsPerClass/2 + r.Intn(p.MethodsPerClass+1)
		if n < 2 {
			n = 2
		}
		if n > 60 {
			n = 60 // class-file method tables are uint16-bounded; stay modest
		}
		classes[c] = n
		total += n
	}

	methods := make([]*method, 0, total)
	for c, n := range classes {
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("m%d", j)
			if c == 0 && j == 0 {
				name = "main"
			}
			methods = append(methods, &method{class: c, idx: j, name: name})
		}
	}

	// Choose the executed set: main plus a seeded ExecFrac sample, then
	// wire a spanning tree (every executed method has an earlier executed
	// caller, so all of E is reachable) plus seeded forward fan-out.
	target := int(p.ExecFrac*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	exec := []int{0}
	methods[0].executed = true
	perm := randPerm(r, total-1)
	for _, v := range perm {
		if len(exec) >= target {
			break
		}
		g := v + 1
		methods[g].executed = true
		exec = append(exec, g)
	}
	sortInts(exec)

	// Roughly a quarter of the executed set (never main) is gated on the
	// input level: called only when the test input raises lvl above 1.
	for _, g := range exec[1:] {
		if r.Intn(4) == 0 {
			methods[g].testOnly = true
		}
	}
	// Spanning tree: the caller of exec[i] is an earlier executed method.
	for i := 1; i < len(exec); i++ {
		caller := methods[exec[r.Intn(i)]]
		caller.callees = append(caller.callees, exec[i])
	}
	// Extra fan-out: forward edges within the executed set, skipping
	// test-only targets so the level gate is their only entry.
	for i, g := range exec {
		extra := r.Intn(p.Fanout + 1)
		for e := 0; e < extra && i+1 < len(exec); e++ {
			t := exec[i+1+r.Intn(len(exec)-i-1)]
			if !methods[t].testOnly {
				methods[g].callees = append(methods[g].callees, t)
			}
		}
	}
	// Cold methods call forward among themselves (never into or out of
	// the executed set), so dead code has call-graph structure too.
	for g, m := range methods {
		if m.executed {
			continue
		}
		extra := r.Intn(p.Fanout + 1)
		for e := 0; e < extra; e++ {
			t := g + 1 + r.Intn(total-g) // may land at total: no edge
			if t < total && !methods[t].executed {
				m.callees = append(m.callees, t)
			}
		}
	}
	// Hot methods: about a third of the executed set carries a loop nest.
	for _, g := range exec {
		if g != 0 && r.Intn(3) == 0 {
			methods[g].hot = true
		}
	}

	// Emit the IR.
	clsName := func(c int) string { return fmt.Sprintf("S%d", c) }
	ir := &jir.Program{Name: p.Name, Main: clsName(0)}
	for c := range classes {
		cl := &jir.Class{
			Name:   clsName(c),
			Fields: []string{"acc"},
			Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte(fmt.Sprintf("%s.java", clsName(c)))}},
		}
		if c == 0 {
			cl.Fields = append(cl.Fields, "result")
		}
		// Dead constant-pool data, sized by DataBytes: a few strings and
		// interned ints no code references (Table 9's unused globals).
		remaining := p.DataBytes/2 + r.Intn(p.DataBytes+1)
		for remaining > 0 {
			n := 40 + r.Intn(120)
			if n > remaining {
				n = remaining
			}
			cl.UnusedStrings = append(cl.UnusedStrings, wordText(r, n))
			remaining -= n
		}
		for k := r.Intn(4); k > 0; k-- {
			cl.UnusedInts = append(cl.UnusedInts, r.Int63())
		}
		ir.Classes = append(ir.Classes, cl)
	}
	for g, m := range methods {
		ir.Classes[m.class].Funcs = append(ir.Classes[m.class].Funcs, emit(p, r, methods, g, clsName))
	}

	// Validate by running both inputs for real, and pin the observed
	// state for the self-check.
	prog, err := jir.Compile(ir)
	if err != nil {
		return nil, nil, fmt.Errorf("synth: %s: compile: %w", p.Name, err)
	}
	ln, err := vm.Link(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("synth: %s: link: %w", p.Name, err)
	}
	trainArgs, testArgs := []int64{1}, []int64{2}
	trainM, err := ln.Run(vm.Options{Args: trainArgs})
	if err != nil {
		return nil, nil, fmt.Errorf("synth: %s: train run: %w", p.Name, err)
	}
	testM, err := ln.Run(vm.Options{Args: testArgs})
	if err != nil {
		return nil, nil, fmt.Errorf("synth: %s: test run: %w", p.Name, err)
	}
	expect := map[bool][]int64{}
	for _, train := range []bool{true, false} {
		m := testM
		if train {
			m = trainM
		}
		vals := make([]int64, 0, p.Classes+1)
		res, err := m.Global(clsName(0), "result")
		if err != nil {
			return nil, nil, fmt.Errorf("synth: %s: %w", p.Name, err)
		}
		vals = append(vals, res)
		for c := 0; c < p.Classes; c++ {
			acc, err := m.Global(clsName(c), "acc")
			if err != nil {
				return nil, nil, fmt.Errorf("synth: %s: %w", p.Name, err)
			}
			vals = append(vals, acc)
		}
		expect[train] = vals
	}
	if expect[false][0] == expect[true][0] {
		// The two inputs must be distinguishable or the train/test
		// profile distinction is vacuous; the level gate plus the outer
		// iteration count make collisions effectively impossible.
		return nil, nil, fmt.Errorf("synth: %s: train and test runs produced identical results", p.Name)
	}

	nClasses := p.Classes
	check := func(m *vm.Machine, train bool) error {
		want := expect[train]
		got, err := m.Global(clsName(0), "result")
		if err != nil {
			return err
		}
		if got != want[0] {
			return fmt.Errorf("%s.result = %d, want %d", clsName(0), got, want[0])
		}
		for c := 0; c < nClasses; c++ {
			acc, err := m.Global(clsName(c), "acc")
			if err != nil {
				return err
			}
			if acc != want[c+1] {
				return fmt.Errorf("%s.acc = %d, want %d", clsName(c), acc, want[c+1])
			}
		}
		return nil
	}

	info := &Info{
		Name:          p.Name,
		Params:        p,
		Classes:       p.Classes,
		Methods:       total,
		ExecutedTrain: trainM.Profile().Executed(),
		ExecutedTest:  testM.Profile().Executed(),
		CodeBytes:     prog.TotalSize(),
		TrainInstrs:   trainM.Profile().TotalInstrs,
		TestInstrs:    testM.Profile().TotalInstrs,
	}
	app := &apps.App{
		Name: p.Name,
		Description: fmt.Sprintf("synthetic workload (seed %d: %d classes, %d methods, %d%% executed)",
			p.Seed, p.Classes, total, (100*info.ExecutedTest)/total),
		CPI:       p.CPI,
		IR:        ir,
		TrainArgs: trainArgs,
		TestArgs:  testArgs,
		Check:     check,
	}
	return app, info, nil
}

// emit builds one method body. Every method folds into its class's acc
// field; executed methods call their planned callees (test-only callees
// behind the level gate), hot methods wrap the work in a seeded loop
// nest, and a seeded heavy tail varies the straight-line body size.
func emit(p Params, r *xrand.Rand, methods []*method, g int, clsName func(int) string) *jir.Func {
	m := methods[g]
	cls := clsName(m.class)
	mix := func(e jir.Expr) jir.Stmt {
		return jir.SetG(cls, "acc",
			jir.And(jir.Add(jir.Mul(jir.G(cls, "acc"), jir.I(31)), e), jir.I(csMask)))
	}

	isMain := g == 0
	xVar := "x"
	if isMain {
		xVar = "n"
	}

	var body []jir.Stmt
	body = append(body, jir.Let("h", jir.Add(jir.L(xVar), jir.I(int64(g)*17+1))))

	// Straight-line mixing statements, heavy-tailed in count.
	stmts := 1 + r.Intn(2*p.BodyScale)
	if r.Intn(8) == 0 {
		stmts *= 4
	}
	for s := 0; s < stmts; s++ {
		k := int64(r.Intn(1 << 16))
		switch r.Intn(3) {
		case 0:
			body = append(body, jir.Let("h", jir.And(jir.Add(jir.Mul(jir.L("h"), jir.I(33)), jir.I(k)), jir.I(csMask))))
		case 1:
			body = append(body, jir.Let("h", jir.Xor(jir.L("h"), jir.Add(jir.L(xVar), jir.I(k)))))
		default:
			body = append(body, jir.Let("h", jir.Add(jir.L("h"), jir.Mul(jir.L(xVar), jir.I(k%257+1)))))
		}
	}

	// Hot methods: a loop nest of the configured depth; the innermost
	// level mixes the loop counters into the accumulator.
	if m.hot {
		inner := jir.Block(mix(jir.Add(jir.Mul(jir.L("h"), jir.I(7)), jir.L(loopVar(p.HotLoopDepth-1)))))
		for d := p.HotLoopDepth - 1; d >= 0; d-- {
			trip := int64(2 + r.Intn(3))
			v := loopVar(d)
			inner = jir.Block(jir.For(jir.Let(v, jir.I(0)), jir.Lt(jir.L(v), jir.I(trip)), jir.Inc(v), inner))
		}
		body = append(body, inner...)
	}

	// Calls. main loops over the input count, so the test input (n=2)
	// does twice the outer work of train (n=1) besides unlocking the
	// level-gated methods.
	var calls []jir.Stmt
	for ci, t := range m.callees {
		callee := methods[t]
		arg := jir.Rem(jir.Add(jir.L("h"), jir.I(int64(ci)*13+int64(t))), jir.I(8191))
		lvl := jir.L("lvl")
		if isMain {
			lvl = jir.L("n")
		}
		call := jir.Let(fmt.Sprintf("t%d", ci), jir.Call(clsName(callee.class), callee.name, arg, lvl))
		use := jir.Let("h", jir.And(jir.Add(jir.L("h"), jir.L(fmt.Sprintf("t%d", ci))), jir.I(csMask)))
		if callee.testOnly {
			calls = append(calls, jir.If(jir.Gt(lvl, jir.I(1)), jir.Block(call, use), nil))
		} else {
			calls = append(calls, call, use)
		}
	}
	if isMain {
		body = append(body, jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.L("n")), jir.Inc("i"), calls))
		body = append(body, mix(jir.L("h")))
		// Fold every class's accumulator into the result global.
		body = append(body, jir.Let("res", jir.L("h")))
		for c := 0; ; c++ {
			body = append(body, jir.Let("res",
				jir.And(jir.Add(jir.Mul(jir.L("res"), jir.I(33)), jir.G(clsName(c), "acc")), jir.I(csMask))))
			if c == p.Classes-1 {
				break
			}
		}
		body = append(body, jir.SetG(clsName(0), "result", jir.L("res")), jir.Halt())
		return &jir.Func{Name: "main", Params: []string{"n"}, LocalData: 20 + r.Intn(120), Body: body}
	}

	body = append(body, calls...)
	body = append(body, mix(jir.L("h")))
	body = append(body, jir.Ret(jir.L("h")))
	return &jir.Func{
		Name: m.name, Params: []string{"x", "lvl"}, NRet: 1,
		LocalData: r.Intn(160), Body: body,
	}
}

// loopVar names the loop counter at nest depth d.
func loopVar(d int) string { return fmt.Sprintf("l%d", d) }

// Suite generates n apps with shapes drawn from a seeded distribution
// around base — the sweep primitive: one seed reproduces the whole
// population. Apps are named "<prefix>-<seed>-<i>" (prefix "synth" when
// base.Name is empty).
func Suite(seed uint64, n int, base Params) ([]*apps.App, []*Info, error) {
	prefix := base.Name
	if prefix == "" {
		prefix = "synth"
	}
	r := xrand.New(mix(seed, 0x51))
	out := make([]*apps.App, 0, n)
	infos := make([]*Info, 0, n)
	for i := 0; i < n; i++ {
		p := base
		p.Name = fmt.Sprintf("%s-%d-%d", prefix, seed, i)
		p.Seed = r.Uint64()
		if base.Classes == 0 {
			p.Classes = 2 + r.Intn(6)
		}
		if base.MethodsPerClass == 0 {
			p.MethodsPerClass = 6 + r.Intn(14)
		}
		if base.Fanout == 0 {
			p.Fanout = 1 + r.Intn(3)
		}
		if base.HotLoopDepth == 0 {
			p.HotLoopDepth = 1 + r.Intn(3)
		}
		if base.ExecFrac == 0 {
			p.ExecFrac = 0.3 + float64(r.Intn(5))*0.1
		}
		if base.DataBytes == 0 {
			p.DataBytes = 150 + r.Intn(700)
		}
		if base.CPI == 0 {
			p.CPI = 200 + int64(r.Intn(4000))
		}
		app, info, err := Generate(p)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, app)
		infos = append(infos, info)
	}
	return out, infos, nil
}

// RegisterSuite generates a suite and registers every app, returning
// the registered names. Registering the same (prefix, seed, n) twice is
// an error, as for apps.Register.
func RegisterSuite(seed uint64, n int, base Params) ([]string, []*Info, error) {
	suite, infos, err := Suite(seed, n, base)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, n)
	for _, app := range suite {
		if err := apps.Register(app); err != nil {
			return nil, nil, err
		}
		names = append(names, app.Name)
	}
	return names, infos, nil
}

// mix perturbs a seed so distinct generator stages draw from distinct
// streams.
func mix(seed uint64, salt uint64) uint64 {
	x := xrand.Mix64(seed ^ salt*0x9E3779B97F4A7C15)
	if x == 0 {
		x = salt
	}
	return x
}

// randPerm is a seeded Fisher–Yates permutation of [0, n).
func randPerm(r *xrand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// sortInts is a tiny insertion sort; exec sets are small and the
// substrate avoids pulling in sort for determinism-critical paths.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// wordText builds deterministic printable text of length n, word-like
// so compressors find matches in it.
func wordText(r *xrand.Rand, n int) string {
	words := []string{
		"stream", "virtual", "method", "overlap", "transfer", "predict",
		"classfile", "latency", "demand", "mobile", "execute", "restruct",
	}
	b := make([]byte, 0, n+8)
	for len(b) < n {
		b = append(b, words[r.Intn(len(words))]...)
		b = append(b, ' ')
	}
	return string(b[:n])
}

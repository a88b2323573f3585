package apps

import (
	"fmt"

	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
)

func init() { register("Hanoi", newHanoi) }

// newHanoi mirrors the paper's Towers of Hanoi applet: a recursive solver
// plus a rendering layer that redraws the board after every move (the
// applet's display work is what drove its huge CPI). Train input solves
// 6 rings, test solves 8, matching Table 1.
//
// Classes: Hanoi (driver and solver), Board (peg state, move log),
// Render (frame drawing: per-disk and per-digit methods).
func newHanoi() *App {
	const (
		maxDisks = 16 // peg array stride
		csMask   = int64(1)<<61 - 1
		trainN   = 6
		testN    = 8
	)

	hanoi := &jir.Class{
		Name:   "Hanoi",
		Fields: []string{"result"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Hanoi.java")}},
		Funcs: []*jir.Func{
			{Name: "main", Params: []string{"n"}, LocalData: 24, Body: jir.Block(
				jir.Do(jir.Call("Board", "init", jir.L("n"))),
				jir.Do(jir.Call("Render", "setup")),
				jir.Do(jir.Call("Hanoi", "solve", jir.L("n"), jir.I(0), jir.I(2), jir.I(1))),
				jir.Do(jir.Call("Render", "finish")),
				jir.SetG("Hanoi", "result", jir.G("Board", "checksum")),
				jir.Halt(),
			)},
			{Name: "solve", Params: []string{"n", "from", "to", "via"}, LocalData: 16, Body: jir.Block(
				jir.If(jir.Le(jir.L("n"), jir.I(0)), jir.Block(jir.RetV()), nil),
				jir.Do(jir.Call("Hanoi", "solve", jir.Sub(jir.L("n"), jir.I(1)), jir.L("from"), jir.L("via"), jir.L("to"))),
				jir.Do(jir.Call("Board", "move", jir.L("from"), jir.L("to"))),
				jir.Do(jir.Call("Render", "frame")),
				jir.Do(jir.Call("Hanoi", "solve", jir.Sub(jir.L("n"), jir.I(1)), jir.L("via"), jir.L("to"), jir.L("from"))),
				jir.RetV(),
			)},
		},
		UnusedStrings: []string{"Towers of Hanoi v1.1"},
	}
	hanoi.Funcs = append(hanoi.Funcs, driverUtils("Hanoi")...)

	board := &jir.Class{
		Name:   "Board",
		Fields: []string{"pegs", "tops", "moves", "checksum"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Board.java")}},
		Funcs: []*jir.Func{
			{Name: "init", Params: []string{"n"}, LocalData: 20, Body: jir.Block(
				jir.SetG("Board", "pegs", jir.NewArr(jir.I(3*maxDisks))),
				jir.SetG("Board", "tops", jir.NewArr(jir.I(3))),
				jir.SetG("Board", "moves", jir.I(0)),
				jir.SetG("Board", "checksum", jir.I(0)),
				jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.L("n")), jir.Inc("i"), jir.Block(
					jir.Do(jir.Call("Board", "push", jir.I(0), jir.Sub(jir.L("n"), jir.L("i")))),
				)),
				jir.RetV(),
			)},
			{Name: "push", Params: []string{"p", "d"}, LocalData: 8, Body: jir.Block(
				jir.Let("h", jir.Idx(jir.G("Board", "tops"), jir.L("p"))),
				jir.SetIdx(jir.G("Board", "pegs"),
					jir.Add(jir.Mul(jir.L("p"), jir.I(maxDisks)), jir.L("h")), jir.L("d")),
				jir.SetIdx(jir.G("Board", "tops"), jir.L("p"), jir.Add(jir.L("h"), jir.I(1))),
				jir.RetV(),
			)},
			{Name: "pop", Params: []string{"p"}, NRet: 1, LocalData: 8, Body: jir.Block(
				jir.Let("h", jir.Sub(jir.Idx(jir.G("Board", "tops"), jir.L("p")), jir.I(1))),
				jir.SetIdx(jir.G("Board", "tops"), jir.L("p"), jir.L("h")),
				jir.Ret(jir.Idx(jir.G("Board", "pegs"),
					jir.Add(jir.Mul(jir.L("p"), jir.I(maxDisks)), jir.L("h")))),
			)},
			{Name: "move", Params: []string{"f", "t"}, LocalData: 12, Body: jir.Block(
				jir.Let("d", jir.Call("Board", "pop", jir.L("f"))),
				jir.Do(jir.Call("Board", "push", jir.L("t"), jir.L("d"))),
				jir.SetG("Board", "moves", jir.Add(jir.G("Board", "moves"), jir.I(1))),
				jir.SetG("Board", "checksum", jir.And(
					jir.Add(jir.Mul(jir.G("Board", "checksum"), jir.I(31)),
						jir.Add(jir.Mul(jir.L("f"), jir.I(577)),
							jir.Add(jir.Mul(jir.L("t"), jir.I(131)), jir.Mul(jir.L("d"), jir.I(7919))))),
					jir.I(csMask))),
				jir.RetV(),
			)},
			{Name: "heightOf", Params: []string{"p"}, NRet: 1, Body: jir.Block(
				jir.Ret(jir.Idx(jir.G("Board", "tops"), jir.L("p"))),
			)},
			{Name: "diskAt", Params: []string{"p", "i"}, NRet: 1, Body: jir.Block(
				jir.Ret(jir.Idx(jir.G("Board", "pegs"),
					jir.Add(jir.Mul(jir.L("p"), jir.I(maxDisks)), jir.L("i")))),
			)},
		},
	}

	// Render: a frame is drawn after every move. Per-disk-size and
	// per-digit draw methods give the class its applet-like method
	// population; the canvas is an accumulated hash standing in for a
	// frame buffer.
	render := &jir.Class{
		Name:   "Render",
		Fields: []string{"canvas", "frames"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Render.java")}},
		UnusedStrings: []string{
			"sans-serif-bold-12", "#c0c0c0",
		},
	}
	mix := func(e jir.Expr) jir.Stmt {
		return jir.SetG("Render", "canvas",
			jir.And(jir.Add(jir.Mul(jir.G("Render", "canvas"), jir.I(33)), e), jir.I(csMask)))
	}
	render.Funcs = append(render.Funcs,
		&jir.Func{Name: "setup", LocalData: 16, Body: jir.Block(
			jir.SetG("Render", "canvas", jir.I(0x5EED)),
			jir.SetG("Render", "frames", jir.I(0)),
			jir.RetV(),
		)},
		&jir.Func{Name: "frame", LocalData: 16, Body: jir.Block(
			jir.Do(jir.Call("Render", "clear")),
			jir.Do(jir.Call("Render", "border")),
			jir.Do(jir.Call("Render", "title")),
			jir.Do(jir.Call("Render", "drawPegs")),
			jir.Do(jir.Call("Render", "drawCounter")),
			jir.Do(jir.Call("Render", "flush")),
			jir.SetG("Render", "frames", jir.Add(jir.G("Render", "frames"), jir.I(1))),
			jir.RetV(),
		)},
		&jir.Func{Name: "clear", LocalData: 8, Body: jir.Block(
			// Wipe a 6x4 cell frame buffer.
			jir.For(jir.Let("y", jir.I(0)), jir.Lt(jir.L("y"), jir.I(6)), jir.Inc("y"), jir.Block(
				jir.For(jir.Let("x", jir.I(0)), jir.Lt(jir.L("x"), jir.I(4)), jir.Inc("x"), jir.Block(
					mix(jir.Add(jir.Mul(jir.L("y"), jir.I(131)), jir.L("x"))),
				)),
			)),
			jir.RetV(),
		)},
		&jir.Func{Name: "border", Body: jir.Block(
			jir.Do(jir.Call("Render", "grid")),
			mix(jir.I(0x0B0B)), jir.RetV())},
		&jir.Func{Name: "grid", Body: jir.Block(mix(jir.I(0x6216)), jir.RetV())},
		&jir.Func{Name: "tick", Params: []string{"i"}, Body: jir.Block(
			mix(jir.Mul(jir.L("i"), jir.I(17))), jir.RetV())},
		&jir.Func{Name: "axis", Body: jir.Block(
			jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(3)), jir.Inc("i"), jir.Block(
				jir.Do(jir.Call("Render", "tick", jir.L("i"))),
			)),
			jir.RetV())},
		&jir.Func{Name: "shadow", Body: jir.Block(mix(jir.I(0x5AAD)), jir.RetV())},
		&jir.Func{Name: "statusBar", Body: jir.Block(mix(jir.I(0x57A7)), jir.RetV())},
		&jir.Func{Name: "legend", Body: jir.Block(mix(jir.I(0x1E6E)), jir.RetV())},
		&jir.Func{Name: "title", Body: jir.Block(
			jir.Do(jir.Call("Render", "axis")),
			jir.Do(jir.Call("Render", "legend")),
			mix(jir.I(0x7117)), jir.RetV())},
		&jir.Func{Name: "flush", Body: jir.Block(
			jir.Do(jir.Call("Render", "shadow")),
			jir.Do(jir.Call("Render", "statusBar")),
			mix(jir.G("Render", "frames")), jir.RetV())},
		&jir.Func{Name: "drawPegs", Body: jir.Block(
			jir.For(jir.Let("p", jir.I(0)), jir.Lt(jir.L("p"), jir.I(3)), jir.Inc("p"), jir.Block(
				jir.Do(jir.Call("Render", "drawPeg", jir.L("p"))),
			)),
			jir.RetV(),
		)},
		&jir.Func{Name: "drawPeg", Params: []string{"p"}, LocalData: 8, Body: jir.Block(
			jir.Do(jir.Call("Render", "label", jir.L("p"))),
			jir.Let("h", jir.Call("Board", "heightOf", jir.L("p"))),
			jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.L("h")), jir.Inc("i"), jir.Block(
				jir.Do(jir.Call("Render", "drawDisk", jir.Call("Board", "diskAt", jir.L("p"), jir.L("i")), jir.L("i"))),
			)),
			jir.RetV(),
		)},
		&jir.Func{Name: "label", Params: []string{"p"}, Body: jir.Block(
			jir.If(jir.Eq(jir.L("p"), jir.I(0)),
				jir.Block(jir.Do(jir.Call("Render", "labelA")), jir.RetV()), nil),
			jir.If(jir.Eq(jir.L("p"), jir.I(1)),
				jir.Block(jir.Do(jir.Call("Render", "labelB")), jir.RetV()), nil),
			jir.Do(jir.Call("Render", "labelC")),
			jir.RetV(),
		)},
		&jir.Func{Name: "labelA", Body: jir.Block(mix(jir.I(0xA1)), jir.RetV())},
		&jir.Func{Name: "labelB", Body: jir.Block(mix(jir.I(0xB2)), jir.RetV())},
		&jir.Func{Name: "labelC", Body: jir.Block(mix(jir.I(0xC3)), jir.RetV())},
	)

	// drawDisk dispatches to the width-specific sprite method.
	var dispatch []jir.Stmt
	for k := 1; k <= 8; k++ {
		kk := int64(k)
		dispatch = append(dispatch, jir.If(jir.Eq(jir.L("d"), jir.I(kk)), jir.Block(
			jir.Do(jir.Call("Render", fmt.Sprintf("disk%d", k), jir.L("row"))),
			jir.RetV(),
		), nil))
	}
	dispatch = append(dispatch, mix(jir.L("d")), jir.RetV())
	render.Funcs = append(render.Funcs, &jir.Func{
		Name: "drawDisk", Params: []string{"d", "row"}, LocalData: 8, Body: dispatch,
	})
	for k := 1; k <= 8; k++ {
		kk := int64(k)
		render.Funcs = append(render.Funcs, &jir.Func{
			Name: fmt.Sprintf("disk%d", k), Params: []string{"row"}, LocalData: 6,
			Body: jir.Block(
				// Paint k cells of the disk's row.
				jir.For(jir.Let("j", jir.I(0)), jir.Lt(jir.L("j"), jir.I(kk)), jir.Inc("j"), jir.Block(
					mix(jir.Add(jir.Mul(jir.L("row"), jir.I(257)), jir.Add(jir.Mul(jir.L("j"), jir.I(37)), jir.I(kk*kk)))),
				)),
				jir.RetV(),
			),
		})
	}

	// drawCounter renders the move count digit by digit.
	render.Funcs = append(render.Funcs, &jir.Func{
		Name: "drawCounter", LocalData: 8, Body: jir.Block(
			jir.Let("v", jir.G("Board", "moves")),
			jir.If(jir.Eq(jir.L("v"), jir.I(0)), jir.Block(
				jir.Do(jir.Call("Render", "digit0")), jir.RetV()), nil),
			jir.While(jir.Gt(jir.L("v"), jir.I(0)), jir.Block(
				jir.Do(jir.Call("Render", "digit", jir.Rem(jir.L("v"), jir.I(10)))),
				jir.Let("v", jir.Div(jir.L("v"), jir.I(10))),
			)),
			jir.RetV(),
		),
	})
	var digitDispatch []jir.Stmt
	for k := 0; k <= 9; k++ {
		kk := int64(k)
		digitDispatch = append(digitDispatch, jir.If(jir.Eq(jir.L("d"), jir.I(kk)), jir.Block(
			jir.Do(jir.Call("Render", fmt.Sprintf("digit%d", k))),
			jir.RetV(),
		), nil))
	}
	digitDispatch = append(digitDispatch, jir.RetV())
	render.Funcs = append(render.Funcs, &jir.Func{
		Name: "digit", Params: []string{"d"}, Body: digitDispatch,
	})
	for k := 0; k <= 9; k++ {
		kk := int64(k)
		render.Funcs = append(render.Funcs, &jir.Func{
			Name: fmt.Sprintf("digit%d", k), LocalData: 5,
			Body: jir.Block(mix(jir.I(kk*kk*919+101)), jir.RetV()),
		})
	}
	render.Funcs = append(render.Funcs, &jir.Func{
		Name: "finish", LocalData: 8, Body: jir.Block(
			mix(jir.I(0xF1A1)),
			jir.RetV(),
		),
	})

	ir := &jir.Program{
		Name:    "Hanoi",
		Main:    "Hanoi",
		Classes: []*jir.Class{hanoi, board, render},
	}

	// Go reference for the move-log checksum.
	refChecksum := func(n int) int64 {
		var cs int64
		var solve func(k, from, to, via int)
		solve = func(k, from, to, via int) {
			if k <= 0 {
				return
			}
			solve(k-1, from, via, to)
			// Pop from 'from', push to 'to': the moved disk is k.
			cs = (cs*31 + int64(from)*577 + int64(to)*131 + int64(k)*7919) & csMask
			solve(k-1, via, to, from)
		}
		solve(n, 0, 2, 1)
		return cs
	}

	check := func(m *vm.Machine, train bool) error {
		n := testN
		if train {
			n = trainN
		}
		if err := checkGlobal(m, "Board", "moves", int64(1)<<n-1); err != nil {
			return err
		}
		if err := checkGlobal(m, "Board", "checksum", refChecksum(n)); err != nil {
			return err
		}
		if err := checkGlobal(m, "Hanoi", "result", refChecksum(n)); err != nil {
			return err
		}
		// All disks must end on peg 2, largest at the bottom.
		tops, err := m.GlobalArray("Board", "tops")
		if err != nil {
			return err
		}
		if tops[0] != 0 || tops[1] != 0 || tops[2] != int64(n) {
			return fmt.Errorf("final peg heights %v, want [0 0 %d]", tops, n)
		}
		pegs, err := m.GlobalArray("Board", "pegs")
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if pegs[2*maxDisks+i] != int64(n-i) {
				return fmt.Errorf("peg 2 slot %d holds disk %d, want %d", i, pegs[2*maxDisks+i], n-i)
			}
		}
		return nil
	}

	return &App{
		Name:        "Hanoi",
		Description: "Towers of Hanoi puzzle solver: solutions to 6 and 8 ring problems are computed",
		CPI:         3830,
		IR:          ir,
		TrainArgs:   []int64{trainN},
		TestArgs:    []int64{testN},
		Check:       check,
	}
}

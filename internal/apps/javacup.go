package apps

import (
	"fmt"
	"strings"

	"nonstrict/internal/jir"
	"nonstrict/internal/slr"
	"nonstrict/internal/vm"
	"nonstrict/internal/xrand"
)

func init() { register("JavaCup", newJavaCup) }

// newJavaCup mirrors the paper's LALR parser-generator benchmark: "a parser
// is created to parse simple mathematics expressions". The parser tables
// are constructed by the real SLR(1) generator in internal/slr; the
// resulting automaton is then emitted as the program itself — one class
// per parser state, exactly how generated parsers are shaped — plus a
// lexer, a table-driven engine, semantic-action methods, and an
// identifier environment.
//
// The train input is a shorter expression using only a subset of the
// operators, so several parser states never execute on it (and some
// grammar features — function application — appear in no input at all,
// which is why a fifth of the methods stay cold, as in Table 2).
func newJavaCup() *App {
	g := slr.Grammar{
		Terminals:    []string{"num", "id", "+", "-", "*", "/", "%", "^", "(", ")", ","},
		Nonterminals: []string{"E", "T", "U", "F"},
		Start:        "E",
		Prods: []slr.Prod{
			{LHS: "E", RHS: []string{"E", "+", "T"}}, // 1
			{LHS: "E", RHS: []string{"E", "-", "T"}}, // 2
			{LHS: "E", RHS: []string{"T"}},           // 3
			{LHS: "T", RHS: []string{"T", "*", "U"}}, // 4
			{LHS: "T", RHS: []string{"T", "/", "U"}}, // 5
			{LHS: "T", RHS: []string{"T", "%", "U"}}, // 6
			{LHS: "T", RHS: []string{"U"}},           // 7
			{LHS: "U", RHS: []string{"F", "^", "U"}}, // 8
			{LHS: "U", RHS: []string{"F"}},           // 9
			{LHS: "F", RHS: []string{"(", "E", ")"}}, // 10
			{LHS: "F", RHS: []string{"num"}},         // 11
			{LHS: "F", RHS: []string{"id"}},          // 12
			{LHS: "F", RHS: []string{"-", "F"}},      // 13
			// Function application: present in the grammar (so its
			// states and actions exist) but in neither input.
			{LHS: "F", RHS: []string{"id", "(", "E", ",", "E", ")"}}, // 14
		},
	}
	tb, err := slr.Build(g)
	if err != nil {
		panic(fmt.Sprintf("apps: JavaCup grammar is not SLR: %v", err))
	}

	rnd := xrand.New(0xCCC1)
	env := make([]int64, 26)
	for i := range env {
		env[i] = int64(1 + rnd.Intn(9)) // nonzero: ids appear as divisors
	}

	// Expression generators. Division and modulus take only literal
	// digits or identifiers on the right, which are nonzero by
	// construction, so evaluation never divides by zero.
	var genE func(r *xrand.Rand, depth int, ops string) string
	var genAtom func(r *xrand.Rand, depth int, ops string) string
	genAtom = func(r *xrand.Rand, depth int, ops string) string {
		switch {
		case depth <= 0 || r.Intn(100) < 55:
			return fmt.Sprintf("%d", 1+r.Intn(99))
		case r.Intn(100) < 45:
			return string(rune('a' + r.Intn(26)))
		case strings.Contains(ops, "-") && r.Intn(100) < 25:
			return "-" + genAtom(r, depth-1, ops)
		default:
			return "(" + genE(r, depth-1, ops) + ")"
		}
	}
	genU := func(r *xrand.Rand, depth int, ops string) string {
		a := genAtom(r, depth, ops)
		if strings.Contains(ops, "^") && r.Intn(100) < 18 {
			return a + "^" + fmt.Sprintf("%d", r.Intn(4))
		}
		return a
	}
	genT := func(r *xrand.Rand, depth int, ops string) string {
		t := genU(r, depth, ops)
		for n := r.Intn(3); n > 0; n-- {
			switch {
			case strings.Contains(ops, "/") && r.Intn(100) < 30:
				t += "/" + fmt.Sprintf("%d", 1+r.Intn(9))
			case strings.Contains(ops, "%") && r.Intn(100) < 20:
				t += "%" + string(rune('a'+r.Intn(26)))
			default:
				t += "*" + genU(r, depth, ops)
			}
		}
		return t
	}
	genE = func(r *xrand.Rand, depth int, ops string) string {
		e := genT(r, depth, ops)
		for n := r.Intn(4); n > 0; n-- {
			op := "+"
			if strings.Contains(ops, "-") && r.Intn(2) == 0 {
				op = "-"
			}
			e += op + genT(r, depth, ops)
		}
		return e
	}
	buildExpr := func(seed uint64, terms int, ops string) string {
		r := xrand.New(seed)
		var b strings.Builder
		for i := 0; i < terms; i++ {
			if i > 0 {
				b.WriteString("+")
			}
			b.WriteString("(" + genE(r, 3, ops) + ")")
		}
		return b.String()
	}
	testExpr := buildExpr(0x7E57, 16, "+-*/%^")
	trainExpr := buildExpr(0x7124, 6, "+*")

	// ---- Go reference ----------------------------------------------------

	lexGo := func(s string) (toks []int, vals []int64) {
		i := 0
		for i < len(s) {
			c := s[i]
			switch {
			case c >= '0' && c <= '9':
				var v int64
				for i < len(s) && s[i] >= '0' && s[i] <= '9' {
					v = v*10 + int64(s[i]-'0')
					i++
				}
				toks = append(toks, tb.TermIndex["num"])
				vals = append(vals, v)
				continue
			case c >= 'a' && c <= 'z':
				toks = append(toks, tb.TermIndex["id"])
				vals = append(vals, env[c-'a'])
			default:
				idx, ok := tb.TermIndex[string(c)]
				if !ok {
					panic(fmt.Sprintf("apps: JavaCup lexer: bad char %q", c))
				}
				toks = append(toks, idx)
				vals = append(vals, 0)
			}
			i++
		}
		return
	}
	ipow := func(a, b int64) int64 {
		r := int64(1)
		for ; b > 0; b-- {
			r *= a
		}
		return r
	}
	reduceGo := func(prod int, rhs []int64) int64 {
		switch prod {
		case 1:
			return rhs[0] + rhs[2]
		case 2:
			return rhs[0] - rhs[2]
		case 3, 7, 9, 11, 12:
			return rhs[0]
		case 4:
			return rhs[0] * rhs[2]
		case 5:
			if rhs[2] == 0 {
				return rhs[0]
			}
			return rhs[0] / rhs[2]
		case 6:
			if rhs[2] == 0 {
				return rhs[0]
			}
			return rhs[0] % rhs[2]
		case 8:
			return ipow(rhs[0], rhs[2])
		case 10:
			return rhs[1]
		case 13:
			return -rhs[1]
		case 14:
			return rhs[2] + rhs[4] // f(x, y) := x + y, never exercised
		}
		panic(fmt.Sprintf("apps: JavaCup: bad production %d", prod))
	}
	refParse := func(s string) (int64, int64) {
		toks, vals := lexGo(s)
		var reduces int64
		v, err := tb.Parse(toks, vals, func(p int, rhs []int64) int64 {
			reduces++
			return reduceGo(p, rhs)
		})
		if err != nil {
			panic(fmt.Sprintf("apps: JavaCup reference parse failed: %v", err))
		}
		return v, reduces
	}
	wantTestV, wantTestR := refParse(testExpr)
	wantTrainV, wantTrainR := refParse(trainExpr)

	ir := cupIR(tb, env, trainExpr, testExpr)

	check := func(m *vm.Machine, train bool) error {
		wantV, wantR := wantTestV, wantTestR
		if train {
			wantV, wantR = wantTrainV, wantTrainR
		}
		if err := checkGlobal(m, "JavaCup", "result", wantV); err != nil {
			return err
		}
		if err := checkGlobal(m, "JavaCup", "reduces", wantR); err != nil {
			return err
		}
		return checkGlobal(m, "JavaCup", "error", 0)
	}

	return &App{
		Name:        "JavaCup",
		Description: "LALR parser generator: a parser is created to parse simple mathematics expressions",
		CPI:         1241,
		IR:          ir,
		TrainArgs:   []int64{0},
		TestArgs:    []int64{1},
		Check:       check,
	}
}

// cupStateName names the per-state parser classes.
func cupStateName(s int) string { return fmt.Sprintf("State%02d", s) }

// cupIR emits the parser program from the generated tables.
func cupIR(tb *slr.Tables, env []int64, trainExpr, testExpr string) *jir.Program {
	I, L, G := jir.I, jir.L, jir.G
	endIdx := tb.TermIndex[slr.End]

	// Action encoding shared by the state classes and the engine.
	const (
		encShift  = 1000
		encReduce = 2000
		encAccept = 3000
		encErr    = -1
	)

	// Lexer: operator characters map to terminal indices.
	opCases := []jir.Stmt{}
	for _, t := range tb.Grammar.Terminals {
		if t == "num" || t == "id" {
			continue
		}
		opCases = append(opCases, jir.If(jir.Eq(L("c"), I(int64(t[0]))),
			jir.Block(jir.Ret(I(int64(tb.TermIndex[t])))), nil))
	}
	opCases = append(opCases, jir.Ret(I(encErr)))

	lexer := &jir.Class{
		Name:   "Lexer",
		Fields: []string{"src", "pos", "term", "val"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Lexer.java")}},
		Funcs: []*jir.Func{
			{Name: "init", Params: []string{"sel"}, LocalData: 64, Body: jir.Block(
				jir.If(jir.Eq(L("sel"), I(0)),
					jir.Block(jir.SetG("Lexer", "src", jir.Str(trainExpr))),
					jir.Block(jir.SetG("Lexer", "src", jir.Str(testExpr)))),
				jir.SetG("Lexer", "pos", I(0)),
				jir.RetV(),
			)},
			{Name: "isDigit", Params: []string{"c"}, NRet: 1, LocalData: 12, Body: jir.Block(
				jir.If(jir.Lt(L("c"), I('0')), jir.Block(jir.Ret(I(0))), nil),
				jir.If(jir.Gt(L("c"), I('9')), jir.Block(jir.Ret(I(0))), nil),
				jir.Ret(I(1)),
			)},
			{Name: "isLetter", Params: []string{"c"}, NRet: 1, LocalData: 12, Body: jir.Block(
				jir.If(jir.Lt(L("c"), I('a')), jir.Block(jir.Ret(I(0))), nil),
				jir.If(jir.Gt(L("c"), I('z')), jir.Block(jir.Ret(I(0))), nil),
				jir.Ret(I(1)),
			)},
			{Name: "opTerm", Params: []string{"c"}, NRet: 1, LocalData: 40, Body: opCases},
			{Name: "next", LocalData: 72, Body: jir.Block(
				jir.Let("s", G("Lexer", "src")),
				jir.Let("p", G("Lexer", "pos")),
				jir.If(jir.Ge(L("p"), jir.ALen(L("s"))), jir.Block(
					jir.SetG("Lexer", "term", I(int64(endIdx))),
					jir.SetG("Lexer", "val", I(0)),
					jir.RetV(),
				), nil),
				jir.Let("c", jir.Idx(L("s"), L("p"))),
				jir.If(jir.Ne(jir.Call("Lexer", "isDigit", L("c")), I(0)), jir.Block(
					jir.Let("v", I(0)),
					jir.While(jir.Ne(jir.Call("Lexer", "peekDigit", L("s"), L("p")), I(0)), jir.Block(
						jir.Let("v", jir.Add(jir.Mul(L("v"), I(10)),
							jir.Sub(jir.Idx(L("s"), L("p")), I('0')))),
						jir.Inc("p"),
					)),
					jir.SetG("Lexer", "pos", L("p")),
					jir.SetG("Lexer", "term", I(int64(tb.TermIndex["num"]))),
					jir.SetG("Lexer", "val", L("v")),
					jir.RetV(),
				), nil),
				jir.If(jir.Ne(jir.Call("Lexer", "isLetter", L("c")), I(0)), jir.Block(
					jir.SetG("Lexer", "pos", jir.Add(L("p"), I(1))),
					jir.SetG("Lexer", "term", I(int64(tb.TermIndex["id"]))),
					jir.SetG("Lexer", "val", jir.Call("Env", "value", jir.Sub(L("c"), I('a')))),
					jir.RetV(),
				), nil),
				jir.SetG("Lexer", "pos", jir.Add(L("p"), I(1))),
				jir.SetG("Lexer", "term", jir.Call("Lexer", "opTerm", L("c"))),
				jir.SetG("Lexer", "val", I(0)),
				jir.RetV(),
			)},
			{Name: "peekDigit", Params: []string{"s", "p"}, NRet: 1, LocalData: 16, Body: jir.Block(
				jir.If(jir.Ge(L("p"), jir.ALen(L("s"))), jir.Block(jir.Ret(I(0))), nil),
				jir.Ret(jir.Call("Lexer", "isDigit", jir.Idx(L("s"), L("p")))),
			)},
		},
		UnusedStrings: []string{"%token num id", "%start E"},
	}

	envInit := []jir.Stmt{jir.SetG("Env", "vals", jir.NewArr(I(26)))}
	for i, v := range env {
		envInit = append(envInit, jir.SetIdx(G("Env", "vals"), I(int64(i)), I(v)))
	}
	envInit = append(envInit, jir.RetV())
	envCls := &jir.Class{
		Name:   "Env",
		Fields: []string{"vals"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Env.java")}},
		Funcs: []*jir.Func{
			{Name: "init", LocalData: 48, Body: envInit},
			{Name: "value", Params: []string{"i"}, NRet: 1, LocalData: 12, Body: jir.Block(
				jir.Ret(jir.Idx(G("Env", "vals"), L("i"))),
			)},
		},
	}

	// Per-state classes.
	var stateClasses []*jir.Class
	for s := 0; s < tb.NumStates; s++ {
		actBody := []jir.Stmt{}
		for t, a := range tb.Action[s] {
			var enc int64
			switch a.Kind {
			case slr.Shift:
				enc = encShift + int64(a.N)
			case slr.Reduce:
				enc = encReduce + int64(a.N)
			case slr.Accept:
				enc = encAccept
			default:
				continue
			}
			actBody = append(actBody, jir.If(jir.Eq(L("t"), I(int64(t))),
				jir.Block(jir.Ret(I(enc))), nil))
		}
		actBody = append(actBody, jir.Ret(I(encErr)))

		gotoBody := []jir.Stmt{}
		for n, g := range tb.Goto[s] {
			if g < 0 {
				continue
			}
			gotoBody = append(gotoBody, jir.If(jir.Eq(L("n"), I(int64(n))),
				jir.Block(jir.Ret(I(int64(g)))), nil))
		}
		gotoBody = append(gotoBody, jir.Ret(I(encErr)))

		stateClasses = append(stateClasses, &jir.Class{
			Name:  cupStateName(s),
			Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte(cupStateName(s) + ".java")}},
			Funcs: []*jir.Func{
				{Name: "action", Params: []string{"t"}, NRet: 1, LocalData: 2000, Body: actBody},
				{Name: "goTo", Params: []string{"n"}, NRet: 1, LocalData: 1400, Body: gotoBody},
			},
		})
	}

	// Semantic actions: one method per production.
	vals := func(off int64) jir.Expr {
		return jir.Idx(G("Parser", "vals"), jir.Add(L("base"), I(off)))
	}
	red := func(p int, body ...jir.Stmt) *jir.Func {
		return &jir.Func{Name: fmt.Sprintf("red%d", p), Params: []string{"base"}, NRet: 1,
			LocalData: 32, Body: body}
	}
	sem := &jir.Class{
		Name:  "Sem",
		Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte("Sem.java")}},
		Funcs: []*jir.Func{
			red(1, jir.Ret(jir.Add(vals(0), vals(2)))),
			red(2, jir.Ret(jir.Sub(vals(0), vals(2)))),
			red(3, jir.Ret(vals(0))),
			red(4, jir.Ret(jir.Mul(vals(0), vals(2)))),
			red(5,
				jir.If(jir.Eq(vals(2), I(0)), jir.Block(jir.Ret(vals(0))), nil),
				jir.Ret(jir.Div(vals(0), vals(2)))),
			red(6,
				jir.If(jir.Eq(vals(2), I(0)), jir.Block(jir.Ret(vals(0))), nil),
				jir.Ret(jir.Rem(vals(0), vals(2)))),
			red(7, jir.Ret(vals(0))),
			red(8, jir.Ret(jir.Call("Sem", "ipow", vals(0), vals(2)))),
			red(9, jir.Ret(vals(0))),
			red(10, jir.Ret(vals(1))),
			red(11, jir.Ret(vals(0))),
			red(12, jir.Ret(vals(0))),
			red(13, jir.Ret(jir.Neg(vals(1)))),
			red(14, jir.Ret(jir.Add(vals(2), vals(4)))),
			{Name: "ipow", Params: []string{"a", "b"}, NRet: 1, LocalData: 24, Body: jir.Block(
				jir.Let("r", I(1)),
				jir.While(jir.Gt(L("b"), I(0)), jir.Block(
					jir.Let("r", jir.Mul(L("r"), L("a"))),
					jir.Let("b", jir.Sub(L("b"), I(1))),
				)),
				jir.Ret(L("r")),
			)},
			{Name: "apply", Params: []string{"p", "base"}, NRet: 1, LocalData: 64, Body: func() []jir.Stmt {
				var ss []jir.Stmt
				for p := 1; p < len(tb.Prods); p++ {
					ss = append(ss, jir.If(jir.Eq(L("p"), I(int64(p))),
						jir.Block(jir.Ret(jir.Call("Sem", fmt.Sprintf("red%d", p), L("base")))), nil))
				}
				ss = append(ss, jir.Ret(I(0)))
				return ss
			}()},
		},
		UnusedStrings: []string{"non terminal E, T, U, F"},
	}

	// Parser engine: the mirror of slr.Tables.Parse.
	actionDispatch := func() []jir.Stmt {
		var ss []jir.Stmt
		for s := 0; s < tb.NumStates; s++ {
			ss = append(ss, jir.If(jir.Eq(L("s"), I(int64(s))),
				jir.Block(jir.Ret(jir.Call(cupStateName(s), "action", L("t")))), nil))
		}
		ss = append(ss, jir.Ret(I(encErr)))
		return ss
	}()
	gotoDispatch := func() []jir.Stmt {
		var ss []jir.Stmt
		for s := 0; s < tb.NumStates; s++ {
			ss = append(ss, jir.If(jir.Eq(L("s"), I(int64(s))),
				jir.Block(jir.Ret(jir.Call(cupStateName(s), "goTo", L("n")))), nil))
		}
		ss = append(ss, jir.Ret(I(encErr)))
		return ss
	}()
	prodLen := func() []jir.Stmt {
		var ss []jir.Stmt
		for p := 1; p < len(tb.Prods); p++ {
			ss = append(ss, jir.If(jir.Eq(L("p"), I(int64(p))),
				jir.Block(jir.Ret(I(int64(len(tb.Prods[p].RHS))))), nil))
		}
		ss = append(ss, jir.Ret(I(0)))
		return ss
	}()
	prodLhs := func() []jir.Stmt {
		var ss []jir.Stmt
		for p := 1; p < len(tb.Prods); p++ {
			ss = append(ss, jir.If(jir.Eq(L("p"), I(int64(p))),
				jir.Block(jir.Ret(I(int64(tb.NonTermIndex[tb.Prods[p].LHS])))), nil))
		}
		ss = append(ss, jir.Ret(I(encErr)))
		return ss
	}()

	parser := &jir.Class{
		Name:   "Parser",
		Fields: []string{"states", "vals", "sps", "spv"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Parser.java")}},
		Funcs: []*jir.Func{
			{Name: "actionOf", Params: []string{"s", "t"}, NRet: 1, LocalData: 2200, Body: actionDispatch},
			{Name: "gotoOf", Params: []string{"s", "n"}, NRet: 1, LocalData: 1800, Body: gotoDispatch},
			{Name: "prodLen", Params: []string{"p"}, NRet: 1, LocalData: 48, Body: prodLen},
			{Name: "prodLhs", Params: []string{"p"}, NRet: 1, LocalData: 48, Body: prodLhs},
			{Name: "run", LocalData: 2400, Body: jir.Block(
				jir.SetG("Parser", "states", jir.NewArr(I(512))),
				jir.SetG("Parser", "vals", jir.NewArr(I(512))),
				jir.SetIdx(G("Parser", "states"), I(0), I(0)),
				jir.Let("sps", I(1)),
				jir.Let("spv", I(0)),
				jir.Do(jir.Call("Lexer", "next")),
				jir.For(nil, nil, nil, jir.Block(
					jir.Let("st", jir.Idx(G("Parser", "states"), jir.Sub(L("sps"), I(1)))),
					jir.Let("a", jir.Call("Parser", "actionOf", L("st"), G("Lexer", "term"))),
					jir.If(jir.Eq(L("a"), I(encAccept)), jir.Block(
						jir.SetG("JavaCup", "result", jir.Idx(G("Parser", "vals"), jir.Sub(L("spv"), I(1)))),
						jir.RetV(),
					), nil),
					jir.If(jir.Lt(L("a"), I(0)), jir.Block(
						jir.SetG("JavaCup", "error", I(1)),
						jir.RetV(),
					), nil),
					jir.If(jir.Ge(L("a"), I(encReduce)), jir.Block(
						// Reduce.
						jir.Let("p", jir.Sub(L("a"), I(encReduce))),
						jir.Let("n", jir.Call("Parser", "prodLen", L("p"))),
						jir.Let("base", jir.Sub(L("spv"), L("n"))),
						jir.Let("v", jir.Call("Sem", "apply", L("p"), L("base"))),
						jir.SetG("JavaCup", "reduces", jir.Add(G("JavaCup", "reduces"), I(1))),
						jir.Let("sps", jir.Sub(L("sps"), L("n"))),
						jir.Let("spv", L("base")),
						jir.Let("g", jir.Call("Parser", "gotoOf",
							jir.Idx(G("Parser", "states"), jir.Sub(L("sps"), I(1))),
							jir.Call("Parser", "prodLhs", L("p")))),
						jir.SetIdx(G("Parser", "states"), L("sps"), L("g")),
						jir.Inc("sps"),
						jir.SetIdx(G("Parser", "vals"), L("spv"), L("v")),
						jir.Inc("spv"),
					), jir.Block(
						// Shift.
						jir.SetIdx(G("Parser", "states"), L("sps"), jir.Sub(L("a"), I(encShift))),
						jir.Inc("sps"),
						jir.SetIdx(G("Parser", "vals"), L("spv"), G("Lexer", "val")),
						jir.Inc("spv"),
						jir.Do(jir.Call("Lexer", "next")),
					)),
				)),
			)},
		},
		UnusedStrings: []string{"CUP v0.10k generated parser"},
	}

	driver := &jir.Class{
		Name:   "JavaCup",
		Fields: []string{"result", "reduces", "error"},
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("JavaCup.java")}},
		Funcs: []*jir.Func{
			{Name: "main", Params: []string{"sel"}, LocalData: 48, Body: jir.Block(
				jir.SetG("JavaCup", "reduces", I(0)),
				jir.SetG("JavaCup", "error", I(0)),
				jir.Do(jir.Call("Env", "init")),
				jir.Do(jir.Call("Lexer", "init", L("sel"))),
				jir.Do(jir.Call("Parser", "run")),
				jir.Halt(),
			)},
		},
	}

	driver.Funcs = append(driver.Funcs, driverUtils("JavaCup")...)
	classes := []*jir.Class{driver, parser, lexer, sem, envCls}
	classes = append(classes, stateClasses...)
	return &jir.Program{Name: "JavaCup", Main: "JavaCup", Classes: classes}
}

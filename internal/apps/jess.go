package apps

import (
	"fmt"

	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
	"nonstrict/internal/xrand"
)

func init() { register("Jess", newJess) }

// Jess parameters shared by the IR program and the Go reference.
const (
	jessGroups    = 90 // rule-group classes
	jessPerGroup  = 15 // rules per group
	jessSlots     = 48 // working-memory counters
	jessTrainRuns = 7  // puzzle instances, train input
	jessTestRuns  = 84 // puzzle instances, test input
	jessMask      = int64(1)<<61 - 1
)

// jessRule is one production: if wm[a] >= c1 and wm[b] <= c2 then
// wm[d] += e, firing at most once per puzzle instance.
type jessRule struct {
	a, c1, b, c2, d, e int
}

// newJess mirrors the paper's expert-system shell: a forward-chaining
// production system solving rule-based puzzles. Rules live in many small
// group classes (the paper's Jess has 97 class files and 1568 methods,
// only 47% of which execute — most productions never activate on a given
// input). Each group has a cheap activation gate; only gated-in groups
// evaluate their rules, which is what keeps half the code cold.
//
// The engine runs each puzzle instance to quiescence: repeated scan
// passes over the groups until a pass fires nothing. The test input
// solves 84 puzzle instances, the train input 7 (Table 2's ~11x
// dynamic-count gap). A Go reference engine built from the same rule tables validates
// the final working-memory checksum and total fire count.
func newJess() *App {
	rnd := xrand.New(0x1E55)

	// Slots 40..47 are control slots: rule actions never write them, so
	// groups gated on a control slot with an unreachable threshold stay
	// cold for every input — the paper's Jess executes only 47% of its
	// methods because most productions never activate.
	const liveSlots = jessSlots - 8
	rules := make([]jessRule, jessGroups*jessPerGroup)
	for i := range rules {
		rules[i] = jessRule{
			a:  rnd.Intn(jessSlots),
			c1: rnd.Intn(6),
			b:  rnd.Intn(jessSlots),
			c2: 2 + rnd.Intn(12),
			d:  rnd.Intn(liveSlots),
			e:  1 + rnd.Intn(3),
		}
	}
	gateSlot := make([]int, jessGroups)
	gateVal := make([]int, jessGroups)
	for g := range gateSlot {
		if rnd.Intn(100) < 50 {
			// Cold module: control slot, unreachable threshold.
			gateSlot[g] = liveSlots + rnd.Intn(8)
			gateVal[g] = 7 + rnd.Intn(4)
		} else {
			gateSlot[g] = rnd.Intn(liveSlots)
			gateVal[g] = rnd.Intn(5)
		}
	}
	baseVal := make([]int, jessSlots)
	for j := range baseVal {
		baseVal[j] = rnd.Intn(5)
	}

	// ---- Go reference ----------------------------------------------------

	refRun := func(instances int) (checksum, fires int64) {
		wm := make([]int64, jessSlots)
		fired := make([]bool, len(rules))
		var cs, total int64
		for inst := 0; inst < instances; inst++ {
			for j := range wm {
				wm[j] = int64(baseVal[j]) + int64((inst*(j+7))%3)
			}
			for i := range fired {
				fired[i] = false
			}
			for {
				var passFires int64
				for g := 0; g < jessGroups; g++ {
					if wm[gateSlot[g]] < int64(gateVal[g]) {
						continue
					}
					for k := 0; k < jessPerGroup; k++ {
						i := g*jessPerGroup + k
						r := rules[i]
						if fired[i] || wm[r.a] < int64(r.c1) || wm[r.b] > int64(r.c2) {
							continue
						}
						wm[r.d] += int64(r.e)
						fired[i] = true
						passFires++
					}
				}
				total += passFires
				if passFires == 0 {
					break
				}
			}
			for j := 0; j < jessSlots; j++ {
				cs = (cs*31 + wm[j]) & jessMask
			}
		}
		return cs, total
	}
	wantTestCS, wantTestF := refRun(jessTestRuns)
	wantTrainCS, wantTrainF := refRun(jessTrainRuns)

	// ---- IR program ------------------------------------------------------

	I, L, G := jir.I, jir.L, jir.G
	wm := func(i jir.Expr) jir.Expr { return jir.Idx(G("Facts", "wm"), i) }

	classes := []*jir.Class{
		{
			Name:   "Jess",
			Fields: []string{"result", "fires"},
			Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Jess.java")}},
			Funcs: []*jir.Func{
				{Name: "main", Params: []string{"instances"}, LocalData: 64, Body: jir.Block(
					jir.SetG("Jess", "result", I(0)),
					jir.SetG("Jess", "fires", I(0)),
					jir.For(jir.Let("inst", I(0)), jir.Lt(L("inst"), L("instances")), jir.Inc("inst"), jir.Block(
						jir.Do(jir.Call("Facts", "setup", L("inst"))),
						jir.Do(jir.Call("Engine", "solve")),
						jir.SetG("Jess", "result", jir.Call("Facts", "fold", G("Jess", "result"))),
					)),
					jir.Halt(),
				)},
			},
			UnusedStrings: []string{"Jess expert system shell (substrate port)", "(deffacts initial)"},
		},
		{
			Name:   "Facts",
			Fields: []string{"wm", "fired"},
			Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Facts.java")}},
			Funcs: []*jir.Func{
				{Name: "setup", Params: []string{"inst"}, LocalData: 48, Body: func() []jir.Stmt {
					ss := []jir.Stmt{
						jir.SetG("Facts", "wm", jir.NewArr(I(jessSlots))),
						jir.SetG("Facts", "fired", jir.NewArr(I(jessGroups*jessPerGroup))),
					}
					for j, v := range baseVal {
						ss = append(ss, jir.SetIdx(G("Facts", "wm"), I(int64(j)),
							jir.Add(I(int64(v)), jir.Rem(jir.Mul(L("inst"), I(int64(j+7))), I(3)))))
					}
					return append(ss, jir.RetV())
				}()},
				{Name: "fold", Params: []string{"cs"}, NRet: 1, LocalData: 24, Body: jir.Block(
					jir.Let("c", L("cs")),
					jir.For(jir.Let("j", I(0)), jir.Lt(L("j"), I(jessSlots)), jir.Inc("j"), jir.Block(
						jir.Let("c", jir.And(jir.Add(jir.Mul(L("c"), I(31)), wm(L("j"))), I(jessMask))),
					)),
					jir.Ret(L("c")),
				)},
			},
		},
	}

	// Engine: scan groups until a pass fires nothing. The activation
	// gates live here, in the engine's network — as in a rete-based
	// shell — so rule groups that never activate are never even called.
	scanBody := []jir.Stmt{jir.Let("f", I(0))}
	for g := 0; g < jessGroups; g++ {
		scanBody = append(scanBody, jir.If(
			jir.Ge(wm(I(int64(gateSlot[g]))), I(int64(gateVal[g]))),
			jir.Block(jir.Let("f", jir.Add(L("f"), jir.Call(jessGroupName(g), "tryAll")))), nil))
	}
	scanBody = append(scanBody, jir.Ret(L("f")))
	classes = append(classes, &jir.Class{
		Name:   "Engine",
		Attrs:  []jir.Attr{{Name: "SourceFile", Data: []byte("Engine.java")}},
		Fields: []string{"passes"},
		Funcs: []*jir.Func{
			{Name: "solve", LocalData: 32, Body: jir.Block(
				jir.Let("f", jir.Call("Engine", "scan")),
				jir.While(jir.Gt(L("f"), I(0)), jir.Block(
					jir.SetG("Jess", "fires", jir.Add(G("Jess", "fires"), L("f"))),
					jir.Let("f", jir.Call("Engine", "scan")),
				)),
				jir.RetV(),
			)},
			{Name: "scan", NRet: 1, LocalData: 96, Body: scanBody},
		},
		UnusedStrings: []string{"rete network disabled: linear scan"},
	})

	// Rule groups.
	for g := 0; g < jessGroups; g++ {
		cls := &jir.Class{
			Name:  jessGroupName(g),
			Attrs: []jir.Attr{{Name: "SourceFile", Data: []byte(jessGroupName(g) + ".java")}},
		}
		tryBody := []jir.Stmt{jir.Let("f", I(0))}
		for k := 0; k < jessPerGroup; k++ {
			tryBody = append(tryBody,
				jir.Let("f", jir.Add(L("f"), jir.Call(cls.Name, fmt.Sprintf("rule%d", k)))))
		}
		tryBody = append(tryBody, jir.Ret(L("f")))
		cls.Funcs = append(cls.Funcs, &jir.Func{
			Name: "tryAll", NRet: 1, LocalData: 24, Body: tryBody,
		})
		for k := 0; k < jessPerGroup; k++ {
			i := g*jessPerGroup + k
			r := rules[i]
			cls.Funcs = append(cls.Funcs, &jir.Func{
				Name: fmt.Sprintf("rule%d", k), NRet: 1, LocalData: 58,
				Body: jir.Block(
					jir.If(jir.Ne(jir.Idx(G("Facts", "fired"), I(int64(i))), I(0)),
						jir.Block(jir.Ret(I(0))), nil),
					jir.If(jir.Lt(wm(I(int64(r.a))), I(int64(r.c1))),
						jir.Block(jir.Ret(I(0))), nil),
					jir.If(jir.Gt(wm(I(int64(r.b))), I(int64(r.c2))),
						jir.Block(jir.Ret(I(0))), nil),
					jir.SetIdx(G("Facts", "wm"), I(int64(r.d)),
						jir.Add(wm(I(int64(r.d))), I(int64(r.e)))),
					jir.SetIdx(G("Facts", "fired"), I(int64(i)), I(1)),
					jir.Ret(I(1)),
				),
			})
		}
		classes = append(classes, cls)
	}

	classes[0].Funcs = append(classes[0].Funcs, driverUtils("Jess")...)
	ir := &jir.Program{Name: "Jess", Main: "Jess", Classes: classes}

	check := func(m *vm.Machine, train bool) error {
		wantCS, wantF := wantTestCS, wantTestF
		if train {
			wantCS, wantF = wantTrainCS, wantTrainF
		}
		if err := checkGlobal(m, "Jess", "result", wantCS); err != nil {
			return err
		}
		return checkGlobal(m, "Jess", "fires", wantF)
	}

	return &App{
		Name:        "Jess",
		Description: "Expert system shell: computes solutions to rule based puzzles",
		CPI:         225,
		IR:          ir,
		TrainArgs:   []int64{jessTrainRuns},
		TestArgs:    []int64{jessTestRuns},
		Check:       check,
	}
}

func jessGroupName(g int) string { return fmt.Sprintf("Rules%02d", g) }

package vm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
)

// testGate is a minimal vm.Gate over closed-channel readiness marks,
// with every wait watchdog-bounded so a lost wakeup fails the test
// instead of hanging it.
type testGate struct {
	mu      sync.Mutex
	classes map[string]chan struct{}
	methods map[classfile.Ref]chan struct{}
}

func newTestGate() *testGate {
	return &testGate{
		classes: make(map[string]chan struct{}),
		methods: make(map[classfile.Ref]chan struct{}),
	}
}

func (g *testGate) classCh(name string) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.classes[name]
	if !ok {
		ch = make(chan struct{})
		g.classes[name] = ch
	}
	return ch
}

func (g *testGate) methodCh(ref classfile.Ref) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.methods[ref]
	if !ok {
		ch = make(chan struct{})
		g.methods[ref] = ch
	}
	return ch
}

// markClass makes a class and all its methods pass the gate.
func (g *testGate) markClass(c *classfile.Class) {
	close(g.classCh(c.Name))
	for _, m := range c.Methods {
		close(g.methodCh(classfile.Ref{Class: c.Name, Name: c.MethodName(m)}))
	}
}

func (g *testGate) AwaitClass(name string) error {
	select {
	case <-g.classCh(name):
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("gate wait for class %s never unblocked", name)
	}
}

func (g *testGate) AwaitMethod(ref classfile.Ref) error {
	select {
	case <-g.methodCh(ref):
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("gate wait for method %v never unblocked", ref)
	}
}

// leaderProgram puts cross-class references on basic-block leaders: a
// call at instruction 0, a static read right after it, and a static read
// at the head of a loop body. A live run that links Main before A arrives
// patches each of them in place and reruns it as a leader.
func leaderProgram() *jir.Program {
	return &jir.Program{Name: "leaders", Main: "Main", Classes: []*jir.Class{
		{Name: "Main", Fields: []string{"out"}, Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(
				jir.Do(jir.Call("A", "z")),
				jir.SetG("Main", "out", jir.G("A", "k")),
				jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(3)), jir.Inc("i"), jir.Block(
					jir.SetG("A", "k", jir.Add(jir.G("A", "k"), jir.Call("A", "h", jir.L("i")))),
				)),
				jir.Halt(),
			)},
		}},
		{Name: "A", Fields: []string{"k"}, Funcs: []*jir.Func{
			{Name: "z", Body: jir.Block(jir.SetG("A", "k", jir.I(7)), jir.RetV())},
			{Name: "h", Params: []string{"x"}, NRet: 1, Body: jir.Block(jir.Ret(jir.Mul(jir.L("x"), jir.I(3))))},
		}},
	}}
}

// refProfile is a run's profile keyed by method reference, so runs that
// number methods differently (live IDs follow arrival) compare.
type refProfile struct {
	firstUse []classfile.Ref
	counts   map[classfile.Ref][2]int64 // instructions, covered bytes
}

func profileByRef(m *Machine) refProfile {
	rp := refProfile{counts: make(map[classfile.Ref][2]int64)}
	for _, id := range m.prof.FirstUse {
		rp.firstUse = append(rp.firstUse, m.meths[id].ref)
	}
	for id, n := range m.prof.MethodInstrs {
		if cov := m.prof.CoveredBytes[id]; n != 0 || cov != 0 {
			rp.counts[m.meths[id].ref] = [2]int64{n, int64(cov)}
		}
	}
	return rp
}

// TestAddClassConcurrentWithRun is the -race test of the linker's shared
// state in isolation (internal/live covers the full stack): a feeder
// goroutine trickles classes in through AddClass while the machine
// executes and stat readers hammer Classes/Methods. The run
// must match the strict linker's profile exactly — instruction count,
// first-use order, and each method's instructions and covered bytes —
// and the stat counters must only ever move forward. In every other
// round the feeder holds the remaining classes back until the main
// method has linked, so its cross-class references are patched at run
// time.
func TestAddClassConcurrentWithRun(t *testing.T) {
	for _, prog := range []func() *jir.Program{chainProgram, leaderProgram} {
		cp, err := jir.Compile(prog())
		if err != nil {
			t.Fatal(err)
		}
		want := compile(t, prog())
		wm, err := want.Run(Options{MaxSteps: 1e7})
		if err != nil {
			t.Fatal(err)
		}
		wantProf := profileByRef(wm)
		// Main first, so that holding the rest back leaves main's
		// references unresolved.
		var classes []*classfile.Class
		for _, c := range cp.Classes {
			if c.Name == cp.MainClass {
				classes = append([]*classfile.Class{c}, classes...)
			} else {
				classes = append(classes, c)
			}
		}

		for round := 0; round < 20; round++ {
			gate := newTestGate()
			lv := NewLive(cp.Name, cp.MainClass, gate)

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					lastC, lastM := 0, 0
					for {
						select {
						case <-stop:
							return
						default:
						}
						c, m := lv.Classes(), lv.Methods()
						if c < lastC || m < lastM {
							t.Errorf("stats went backwards: classes %d→%d, methods %d→%d", lastC, c, lastM, m)
							return
						}
						lastC, lastM = c, m
					}
				}()
			}

			mainLinked := make(chan struct{})
			hold := round%2 == 0
			go func() {
				for i, c := range classes {
					if i == 1 && hold {
						select {
						case <-mainLinked:
						case <-stop:
							return
						}
					}
					if err := lv.AddClass(c, 0); err != nil {
						t.Errorf("AddClass(%s): %v", c.Name, err)
						return
					}
					// Idempotence under the same race: a demand-fetched
					// duplicate global unit re-adds the class.
					if err := lv.AddClass(c, 0); err != nil {
						t.Errorf("duplicate AddClass(%s): %v", c.Name, err)
						return
					}
					gate.markClass(c)
					time.Sleep(time.Duration(round%3) * 50 * time.Microsecond)
				}
			}()

			mainRef := cp.Main()
			m, err := lv.Run(Options{MaxSteps: 1e7, OnFirstUse: func(ref classfile.Ref) {
				if ref == mainRef {
					close(mainLinked)
				}
			}})
			close(stop)
			readers.Wait()
			if err != nil {
				t.Fatalf("%s round %d: live run failed: %v", cp.Name, round, err)
			}
			if m.Steps() != wm.Steps() {
				t.Fatalf("%s round %d: live run executed %d instructions, strict run %d", cp.Name, round, m.Steps(), wm.Steps())
			}
			if got := profileByRef(m); !reflect.DeepEqual(got, wantProf) {
				t.Fatalf("%s round %d: live profile %+v, strict %+v", cp.Name, round, got, wantProf)
			}
			if lv.Classes() != len(cp.Classes) {
				t.Fatalf("%s round %d: %d classes registered, fed %d", cp.Name, round, lv.Classes(), len(cp.Classes))
			}
		}
	}
}

package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/vm"
)

func hanoi(t *testing.T) *apps.App {
	t.Helper()
	app, err := apps.ByName("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestBuildRunsOnlyTheNamedInput: the static order never links or executes
// the program; a profile-guided order executes it exactly once, on the
// input the policy names — not the paper's whole evaluation.
func TestBuildRunsOnlyTheNamedInput(t *testing.T) {
	for _, tc := range []struct {
		order string
		runs  []bool // the train flag of each profiled run
	}{
		{OrderStatic, nil},
		{OrderTrain, []bool{true}},
		{OrderTest, []bool{false}},
	} {
		app := hanoi(t)
		var runs []bool
		check := app.Check
		app.Check = func(m *vm.Machine, train bool) error {
			runs = append(runs, train)
			return check(m, train)
		}
		st, err := Build(context.Background(), app, tc.order)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(runs, tc.runs) {
			t.Errorf("%s: profiled runs (train flags) %v, want %v", tc.order, runs, tc.runs)
		}
		for _, s := range []Stage{StageLink, StageProfile} {
			if ran := st.Stages[s] > 0; ran != (tc.runs != nil) {
				t.Errorf("%s: stage %s took %v", tc.order, s, st.Stages[s])
			}
		}
		if len(st.Data) == 0 || len(st.TOC) == 0 || len(st.Units) == 0 || st.Program == nil {
			t.Errorf("%s: incomplete stream %+v", tc.order, st)
		}
	}
	if _, err := Build(context.Background(), hanoi(t), "declaration"); err == nil {
		t.Error("unknown order policy built")
	}
}

// TestStagesCheckContext: no stage starts once the context is done.
func TestStagesCheckContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r, err := Compile(ctx, hanoi(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Link(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Static(ctx); err != nil {
		t.Fatal(err)
	}
	spent := r.Times
	cancel()

	_, errCompile := Compile(ctx, hanoi(t))
	_, errProfile := r.Profile(ctx, true, false)
	_, errOrder := r.Order(ctx, nil)
	_, errRestructure := r.Restructure(ctx, r.SCG)
	_, errWrite := r.Write(ctx, r.Prog, r.SCG)
	for name, err := range map[string]error{
		"compile": errCompile, "link": r.Link(ctx), "profile": errProfile, "static": r.Static(ctx),
		"order": errOrder, "restructure": errRestructure, "write": errWrite,
	} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: %v, want context.Canceled", name, err)
		}
	}
	if r.Times != spent {
		t.Errorf("a stage ran under a cancelled context: %v, was %v", r.Times, spent)
	}
}

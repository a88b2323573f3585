package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/jir"
	"nonstrict/internal/pipeline"
)

// classImages compiles ir and returns each class's serialized bytes.
func classImages(t *testing.T, ir *jir.Program) []string {
	t.Helper()
	cp, err := jir.Compile(ir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, c := range cp.Classes {
		out = append(out, string(c.Serialize()))
	}
	return out
}

// TestAppsAreBuiltOnceAndNeverWritten: the registry owns each app, every
// caller reads the one IR it built, and a variant is a new program. The
// readers that used to need a private copy — the split study, which
// wrote it, beside all 18 builds and each app's model build (compile,
// link and the test-input profile run: how the fleet measures a need
// trace) — run at once over the shared IR; afterwards the registry
// still hands out the same pointer, it still compiles to the same
// bytes, and what a caller did to its App struct stayed with that
// caller. Under -race this is also the proof that none of them writes.
func TestAppsAreBuiltOnceAndNeverWritten(t *testing.T) {
	before := apps.All()
	images := make([][]string, len(before))
	for i, a := range before {
		images[i] = classImages(t, a.IR)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	run := func(what string, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}()
	}
	run("split study", func() error {
		_, err := (&Suite{}).SplitStudy(12)
		return err
	})
	for _, name := range apps.Names() {
		for _, order := range []string{pipeline.OrderStatic, pipeline.OrderTrain, pipeline.OrderTest} {
			run("build "+name+"/"+order, func() error {
				app, err := apps.ByName(name)
				if err != nil {
					return err
				}
				_, err = pipeline.Build(ctx, app, order)
				return err
			})
		}
		run("model build "+name, func() error {
			app, err := apps.ByName(name)
			if err != nil {
				return err
			}
			r, err := pipeline.Compile(ctx, app)
			if err != nil {
				return err
			}
			if err := r.Link(ctx); err != nil {
				return err
			}
			_, err = r.Profile(ctx, false, false)
			return err
		})
	}
	wg.Wait()

	for i, a := range before {
		got, err := apps.ByName(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.IR != a.IR {
			t.Errorf("%s: ByName hands out a different IR than before", a.Name)
		}
		if !reflect.DeepEqual(classImages(t, got.IR), images[i]) {
			t.Errorf("%s: the IR compiles to different bytes than before", a.Name)
		}
		got.Name, got.Check = "renamed", nil
		if next, _ := apps.ByName(a.Name); next.Name != a.Name || next.Check == nil {
			t.Errorf("%s: a caller's change to its App struct reached the next ByName (%q)", a.Name, next.Name)
		}
	}
}

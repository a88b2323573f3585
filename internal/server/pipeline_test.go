package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/experiments"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/stream"
)

var allOrders = []string{OrderStatic, OrderTrain, OrderTest}

// pinnedETags are the stream and unit-table validators of every
// (app, order) key, recorded from commit d093000 — the last one whose
// train/test builds went through experiments.LoadCtx. A refactor of the
// build path that moves any of them changed served bytes.
var pinnedETags = []struct {
	app, order, etag, tocETag string
	size, units               int
}{
	{"BIT", "scg", `"1ac94e53f73f16b2"`, `"da46df29f9808442"`, 140187, 291},
	{"BIT", "train", `"793508f7be667d7e"`, `"2557e4f079be6fc3"`, 140187, 291},
	{"BIT", "test", `"5f9cf37a56f51d69"`, `"126e291deaa1968b"`, 140187, 291},
	{"Hanoi", "scg", `"b5baf2119e924b92"`, `"dba6885ddb8baa80"`, 6759, 57},
	{"Hanoi", "train", `"edb1829a088ebe2a"`, `"adc2c173d536569f"`, 6759, 57},
	{"Hanoi", "test", `"d63209b3d2067d89"`, `"f9471264cd677e23"`, 6759, 57},
	{"JavaCup", "scg", `"4042302ce363b30d"`, `"b3bc5bc6ecae7b8d"`, 121908, 128},
	{"JavaCup", "train", `"8286b2ceee37c3d6"`, `"b28855191c59e5c4"`, 121908, 128},
	{"JavaCup", "test", `"4ba8acb7a914f703"`, `"787f94d5c9a08f4e"`, 121908, 128},
	{"Jess", "scg", `"be2dc7baa140672e"`, `"fe7e62e0633c187a"`, 277789, 1544},
	{"Jess", "train", `"34ec860e9810db97"`, `"fb13220ef411d7af"`, 277789, 1544},
	{"Jess", "test", `"34ec860e9810db97"`, `"fb13220ef411d7af"`, 277789, 1544},
	{"JHLZip", "scg", `"a4fc520eb30f6444"`, `"fbb7fde20479a6d4"`, 35251, 62},
	{"JHLZip", "train", `"fefce73a7a789162"`, `"ecb7430870e074c1"`, 35251, 62},
	{"JHLZip", "test", `"fefce73a7a789162"`, `"ecb7430870e074c1"`, 35251, 62},
	{"TestDes", "scg", `"3e81788751aab435"`, `"c0b51f12587726a7"`, 38689, 41},
	{"TestDes", "train", `"c80222da8ddede62"`, `"ee6eb5636eb2cee6"`, 38689, 41},
	{"TestDes", "test", `"23cc5dc2d26ffa9d"`, `"dddae5ecb8d20466"`, 38689, 41},
}

// TestBuildETagsPinned: byte identity of every served artifact against a
// recorded commit, so a build-path change is checked by tier-1 and not by
// building two trees and diffing.
func TestBuildETagsPinned(t *testing.T) {
	if want := len(apps.Names()) * len(allOrders); len(pinnedETags) != want {
		t.Fatalf("%d pinned keys, %d (app, order) keys exist", len(pinnedETags), want)
	}
	for _, p := range pinnedETags {
		art, err := Build(context.Background(), Key{App: p.app, Order: p.order})
		if err != nil {
			t.Fatal(err)
		}
		if art.ETag != p.etag || art.TOCETag != p.tocETag || len(art.Data) != p.size || art.Units != p.units {
			t.Errorf("%s/%s: stream %s table %s (%d bytes, %d units), pinned %s %s (%d, %d)",
				p.app, p.order, art.ETag, art.TOCETag, len(art.Data), art.Units, p.etag, p.tocETag, p.size, p.units)
		}
	}
}

// TestConcurrentBuildsMatchPins: builds share no scratch. The cache
// builds different keys at once, so all 18 are built here at once, each
// from its own goroutine, and each must still be the pinned artifact;
// under -race, a buffer two builds shared is a reported race.
func TestConcurrentBuildsMatchPins(t *testing.T) {
	arts := make([]*Artifact, len(pinnedETags))
	errs := make([]error, len(pinnedETags))
	var wg sync.WaitGroup
	for i, p := range pinnedETags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arts[i], errs[i] = Build(context.Background(), Key{App: p.app, Order: p.order})
		}()
	}
	wg.Wait()
	for i, p := range pinnedETags {
		if errs[i] != nil {
			t.Errorf("%s/%s: %v", p.app, p.order, errs[i])
			continue
		}
		if art := arts[i]; art.ETag != p.etag || art.TOCETag != p.tocETag {
			t.Errorf("%s/%s built concurrently: stream %s table %s, pinned %s %s",
				p.app, p.order, art.ETag, art.TOCETag, p.etag, p.tocETag)
		}
	}
}

// TestLoadCtxAgreesWithBuild: the paper tables and the serving path derive
// a first-use order from one pipeline — the stream written from what
// LoadCtx prepared for a predictor is the artifact Build serves for it.
func TestLoadCtxAgreesWithBuild(t *testing.T) {
	kinds := map[string]experiments.OrderKind{
		OrderStatic: experiments.SCG, OrderTrain: experiments.Train, OrderTest: experiments.Test,
	}
	for _, app := range apps.All() {
		b, err := experiments.LoadCtx(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range allOrders {
			art, err := Build(context.Background(), Key{App: app.Name, Order: order})
			if err != nil {
				t.Fatal(err)
			}
			o, rp, _, _ := b.Prepared(kinds[order])
			w, err := stream.NewWriter(rp, b.Ix, o)
			if err != nil {
				t.Fatal(err)
			}
			var data bytes.Buffer
			if _, err := w.WriteTo(&data); err != nil {
				t.Fatal(err)
			}
			toc, err := stream.MarshalTOC(w.TOC())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data.Bytes(), art.Data) {
				t.Errorf("%s/%s: LoadCtx's stream differs from Build's", app.Name, order)
			}
			if !bytes.Equal(toc, art.TOC) {
				t.Errorf("%s/%s: LoadCtx's unit table differs from Build's", app.Name, order)
			}
		}
	}
}

var countedRuns atomic.Int64

// TestNewConstructsNoApp: booting a server validates app names — a
// registered non-paper one included — against the registry, and neither
// that nor building constructs an app: 100 builds over the 18 keys leave
// every app's IR the one the registry built for the first caller.
func TestNewConstructsNoApp(t *testing.T) {
	// Unique per run: the registry is process-global and has no removal.
	name := fmt.Sprintf("server-test-counted-%d", countedRuns.Add(1))
	a, err := apps.ByName("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	a.Name = name
	if err := apps.Register(a); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Apps: []string{name}, DefaultApp: name}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DefaultApp: name}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(context.Background(), Key{App: name, Order: OrderTrain}); err != nil {
		t.Fatal(err)
	}

	before := apps.All()
	for i := 0; i < 100; i++ {
		p := pinnedETags[i%len(pinnedETags)]
		if _, err := Build(context.Background(), Key{App: p.app, Order: p.order}); err != nil {
			t.Fatal(err)
		}
	}
	for i, after := range apps.All() {
		if after.IR != before[i].IR {
			t.Errorf("%s: the registry hands out a different IR after 100 builds", after.Name)
		}
	}

	_, err = New(Config{Apps: []string{"NoSuchApp"}})
	_, want := apps.ByName("NoSuchApp")
	if err == nil || err.Error() != want.Error() {
		t.Errorf("New with an unknown app: %v, want %v", err, want)
	}
}

// TestBuildHonorsCancellation: a context cancelled before the build starts
// stops every order policy — the static one used to ignore it.
func TestBuildHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, order := range allOrders {
		if _, err := Build(ctx, Key{App: "Hanoi", Order: order}); !errors.Is(err, context.Canceled) {
			t.Errorf("Build %s under a cancelled context: %v, want context.Canceled", order, err)
		}
	}
	app, err := apps.ByName("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.LoadCtx(ctx, app); !errors.Is(err, context.Canceled) {
		t.Errorf("LoadCtx under a cancelled context: %v, want context.Canceled", err)
	}
}

// countdownCtx is done from its n-th Err call on. The pipeline asks
// between stages, so some n cancels a build at every stage boundary.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledBuildPublishesNothing: whichever stage boundary a build is
// cancelled at, no partial artifact reaches the cache or the disk store.
func TestCancelledBuildPublishesNothing(t *testing.T) {
	for _, order := range allOrders {
		for n := 0; ; n++ {
			if n > 100 {
				t.Fatalf("%s: still cancelled after %d context checks", order, n)
			}
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(int64(n))
			store, err := OpenDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c := NewCache(0, func(_ context.Context, k Key) (*Artifact, error) { return Build(ctx, k) })
			c.Store = store
			k := Key{App: "Hanoi", Order: order}
			art, _, err := c.Get(context.Background(), k)
			if err == nil {
				// n checks were not enough to cancel it: every boundary
				// has been tried, and the full build does publish.
				if n == 0 {
					t.Errorf("%s: the build never checked its context", order)
				}
				awaitWriteBack(art)
				if c.Peek(k) != art || store.Stats().Entries != 1 {
					t.Errorf("%s: an uncancelled build was not published", order)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled at check %d: %v, want context.Canceled", order, n, err)
			}
			if c.Peek(k) != nil || c.Stats().Entries != 0 {
				t.Errorf("%s cancelled at check %d: the cache holds an artifact", order, n)
			}
			if ss := store.Stats(); ss.Entries != 0 || ss.Puts != 0 {
				t.Errorf("%s cancelled at check %d: the store holds %d entries after %d puts", order, n, ss.Entries, ss.Puts)
			}
			// A failed build still counts, its wall-clock time included.
			if cs := c.Stats(); cs.Builds != 1 || cs.BuildErrors != 1 || cs.BuildSeconds <= 0 {
				t.Errorf("%s cancelled at check %d: %+v", order, n, cs)
			}
		}
	}
}

var (
	stageSeries = regexp.MustCompile(`(?m)^nonstrict_build_stage_seconds_total\{stage="([a-z]+)"\} (\S+)$`)
	totalSeries = regexp.MustCompile(`(?m)^nonstrict_cache_build_seconds_total (\S+)$`)
)

// scrapeStages reads the per-stage build seconds and the build-seconds
// total off /metrics.
func scrapeStages(t *testing.T, url string) (stages map[string]float64, total float64) {
	t.Helper()
	resp, body := get(t, url+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	stages = make(map[string]float64)
	for _, m := range stageSeries.FindAllSubmatch(body, -1) {
		v, err := strconv.ParseFloat(string(m[2]), 64)
		if err != nil {
			t.Fatalf("stage %s: %v", m[1], err)
		}
		stages[string(m[1])] = v
	}
	m := totalSeries.FindSubmatch(body)
	if m == nil {
		t.Fatalf("no nonstrict_cache_build_seconds_total in:\n%s", body)
	}
	total, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return stages, total
}

// TestMetricsBuildStages: /metrics splits build time by pipeline stage, the
// split stays within the wall-clock build-seconds total, and only a
// profile-guided order spends time linking and profiling. A profile-guided
// build runs its static and profile stages side by side, so its stages
// stay within the total once the shorter of the two is taken out.
func TestMetricsBuildStages(t *testing.T) {
	for _, order := range []string{OrderTrain, OrderStatic} {
		_, ts := testServer(t, Config{Apps: []string{"Hanoi"}, Order: order})
		if resp, _ := get(t, ts.URL+"/apps/Hanoi/app", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET stream: %s", order, resp.Status)
		}
		stages, total := scrapeStages(t, ts.URL)
		if len(stages) != int(pipeline.NumStages) {
			t.Fatalf("%s: %d stage series, want %d: %v", order, len(stages), pipeline.NumStages, stages)
		}
		var sum float64
		for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
			v, ok := stages[s.String()]
			if !ok {
				t.Errorf("%s: no series for stage %q", order, s)
			}
			sum += v
		}
		overlap := 0.0
		if order != OrderStatic {
			overlap = min(stages["static"], stages["profile"])
		}
		if sum <= 0 || sum-overlap > total {
			t.Errorf("%s: stages sum to %g s (%g s side by side), nonstrict_cache_build_seconds_total is %g s", order, sum, overlap, total)
		}
		for _, s := range []string{"link", "profile"} {
			if profiled := order != OrderStatic; (stages[s] > 0) != profiled {
				t.Errorf("%s: %s stage took %g s", order, s, stages[s])
			}
		}
		for _, s := range []string{"compile", "static", "write"} {
			if stages[s] <= 0 {
				t.Errorf("%s: %s stage took %g s", order, s, stages[s])
			}
		}
	}
}

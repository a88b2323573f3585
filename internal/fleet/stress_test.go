package fleet

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/xrand"
)

// TestFleetChaosStress is the nightly randomized soak: many rounds,
// each a fresh fleet with a randomly drawn shape (clients, links,
// order, think time) under a randomly drawn — but always survivable —
// fault schedule. Every round's seed is logged up front and repeated in
// any failure, so a red nightly run is reproducible with
// FLEET_STRESS_SEED. Gated behind FLEET_STRESS so ordinary test runs
// stay fast.
func TestFleetChaosStress(t *testing.T) {
	if os.Getenv("FLEET_STRESS") == "" {
		t.Skip("set FLEET_STRESS=1 (nightly CI) to run the randomized soak")
	}
	rounds := 8
	if s := os.Getenv("FLEET_STRESS_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("FLEET_STRESS_ROUNDS=%q", s)
		}
		rounds = n
	}
	var root uint64
	if s := os.Getenv("FLEET_STRESS_SEED"); s != "" {
		n, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("FLEET_STRESS_SEED=%q: %v", s, err)
		}
		root = n
	} else {
		root = uint64(time.Now().UnixNano())
	}
	t.Logf("root seed %#x (reproduce with FLEET_STRESS_SEED=%#x)", root, root)

	names, err := testApps()
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(root)
	orders := []string{server.OrderStatic, server.OrderTrain, server.OrderTest}
	allLinks := []stream.LinkClass{stream.LinkModem, stream.LinkT1, linkLTE, linkSatellite}

	for round := 0; round < rounds; round++ {
		seed := rng.Uint64()
		cfg := config{
			Apps:      names[:1+rng.Intn(len(names))],
			Clients:   8 + rng.Intn(32),
			Links:     []stream.LinkClass{allLinks[rng.Intn(len(allLinks))]},
			Seed:      seed,
			Order:     orders[rng.Intn(len(orders))],
			Duration:  time.Duration(50+rng.Intn(150)) * time.Millisecond,
			TimeScale: 2000,
			ThinkMean: time.Duration(1+rng.Intn(3)) * time.Millisecond,
		}
		if rng.Intn(2) == 0 {
			cfg.Links = append(cfg.Links, allLinks[rng.Intn(len(allLinks))])
		}
		// Survivable corruption, chosen exactly as the live chaos gate
		// does: pin the round to one app and pick a period that lands the
		// first hit mid-payload of a unit in the stream's second half (the
		// second hit falls past EOF, and every unit is shorter than the
		// period, so repair and demand range replies — whose corrupt
		// positions are relative to their own bodies — come back clean).
		// A header hit would be unrepairable by design, so rounds that
		// find no such target run fault-free.
		if rng.Intn(4) != 0 {
			cfg.Apps = cfg.Apps[:1]
			art, err := server.Build(context.Background(), server.Key{App: cfg.Apps[0], Order: cfg.Order})
			if err != nil {
				t.Fatal(err)
			}
			toc, err := stream.ParseTOC(art.TOC)
			if err != nil {
				t.Fatal(err)
			}
			maxLen := int64(0)
			for _, u := range toc {
				if int64(u.Len) > maxLen {
					maxLen = int64(u.Len)
				}
			}
			half := int64(len(art.Data)) / 2
			for _, u := range toc {
				period := u.Off + int64(u.Len)/2 + 1
				if u.Off >= half && period > maxLen && u.Len >= 2 {
					cfg.Fault = stream.Fault{CorruptEvery: period, Seed: seed}
					break
				}
			}
			if cfg.Fault.Enabled() && rng.Intn(2) == 0 {
				cfg.Fault.FlakyTOC = 1 + rng.Intn(2)
			}
		}
		desc := fmt.Sprintf("round %d seed %#x: %d clients, %d apps, links %v, order %s, fault %+v",
			round, seed, cfg.Clients, len(cfg.Apps), linkNames(cfg.Links), cfg.Order, cfg.Fault)
		t.Log(desc)

		res, err := runFleet(context.Background(), cfg)
		if err != nil {
			t.Fatalf("FAILING SEED %#x (root %#x): %s: %v", seed, root, desc, err)
		}
		models, err := buildModels(context.Background(), cfg.Apps)
		if err != nil {
			t.Fatal(err)
		}
		for i, cr := range res.Clients {
			if err := checkClient(cr, models[cr.App].needs); err != nil {
				t.Fatalf("FAILING SEED %#x (root %#x): %s: client %d (%s on %s): %v",
					seed, root, desc, i, cr.App, cr.Link, err)
			}
		}
	}
}

// linkNames lists the names of a link set for logs.
func linkNames(links []stream.LinkClass) []string {
	out := make([]string, len(links))
	for i, l := range links {
		out[i] = l.Name
	}
	return out
}

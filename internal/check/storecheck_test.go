package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nonstrict/internal/server"
)

// putSteps is the ordered crash schedule of DiskStore.Put: the store's
// CrashHook fires before/after each labeled point of the write
// protocol, and the checker simulates dying at every one of them. The
// list is pinned here deliberately — if the write protocol gains or
// loses a step, this file must change with it, and the divergence check
// below fails loudly rather than silently skipping crash points.
var putSteps = []string{
	"begin",
	"temp-created",
	"header-written",
	"data-partial",
	"data-written",
	"toc-written",
	"crc-written",
	"synced",
	"closed",
	"renamed",
	"dir-synced",
	"stale-deleted",
}

// commitStep is the atomic commit point: a crash at or after it leaves
// the NEW artifact readable; a crash before it leaves the OLD state
// (previous generation or absence) intact. That is the entire
// durability spec of the store.
const commitStep = "renamed"

// storeReport summarizes one crash-step enumeration.
type storeReport struct {
	// Crashes is the number of simulated crash points exercised.
	Crashes int
	// Scenarios is the number of initial-state scenarios (fresh key,
	// overwrite).
	Scenarios int
}

// storeCrash aborts a Put at exactly one step, the way a process death
// would: by panicking out of it, so no in-process cleanup runs and the
// directory is left exactly as the crash instant had it.
type storeCrash struct{ step string }

func crashPut(s *server.DiskStore, art *server.Artifact, step string) (crashed bool, seen map[string]bool, err error) {
	seen = map[string]bool{}
	s.CrashHook = func(at string) error {
		seen[at] = true
		if at == step {
			panic(storeCrash{at})
		}
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(storeCrash); ok && c.step == step {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	err = s.Put(art)
	return false, seen, err
}

// checkStoreCrashes enumerates a crash at every step of the disk
// store's Put protocol, across both initial states (no previous
// generation; an intact previous generation), and verifies the
// reopened directory against the executable durability spec:
//
//   - before the commit step, the previous state is fully intact:
//     the old artifact (byte-identical, same validators) or a miss;
//   - at and after the commit step, the new artifact is fully intact;
//   - at NO crash point is a torn or mixed artifact readable, nothing
//     is left quarantined, and no temp file survives reopen;
//   - after any crash, a clean retry Put succeeds and reads back.
func checkStoreCrashes(dir string) (*storeReport, error) {
	oldArt := specStoreArtifact("victim", "old generation payload bytes", "old-toc")
	newArt := specStoreArtifact("victim", "new generation payload, different and longer", "new-toc")
	rep := &storeReport{}

	for _, withPrevious := range []bool{false, true} {
		rep.Scenarios++
		for _, step := range putSteps {
			rep.Crashes++
			caseDir := filepath.Join(dir, fmt.Sprintf("prev%v-%s", withPrevious, step))
			s, err := server.OpenDiskStore(caseDir)
			if err != nil {
				return nil, err
			}
			if withPrevious {
				if err := s.Put(oldArt); err != nil {
					return nil, fmt.Errorf("store-crash %s: seeding previous generation: %v", step, err)
				}
			}
			crashed, _, perr := crashPut(s, newArt, step)
			if !crashed {
				return nil, fmt.Errorf("store-crash %s: Put did not reach the step (err=%v) — putSteps is stale", step, perr)
			}

			// The process is dead; everything it knew is gone. Reopen
			// the directory cold, as a restart would.
			r, err := server.OpenDiskStore(caseDir)
			if err != nil {
				return nil, fmt.Errorf("store-crash %s: reopen: %v", step, err)
			}
			wantNew := committedAt(step)
			got, gerr := r.Get(oldArt.Key)
			switch {
			case wantNew:
				if gerr != nil {
					return nil, fmt.Errorf("store-crash %s: crash after commit lost the new artifact: %v", step, gerr)
				}
				if err := sameArtifact(got, newArt); err != nil {
					return nil, fmt.Errorf("store-crash %s: committed artifact damaged: %v", step, err)
				}
			case withPrevious:
				if gerr != nil {
					return nil, fmt.Errorf("store-crash %s: crash before commit lost the previous generation: %v", step, gerr)
				}
				if err := sameArtifact(got, oldArt); err != nil {
					return nil, fmt.Errorf("store-crash %s: previous generation damaged: %v", step, err)
				}
			default:
				if !errors.Is(gerr, server.ErrStoreMiss) {
					return nil, fmt.Errorf("store-crash %s: uncommitted Put became readable: got %v, want miss", step, gerr)
				}
			}
			if st := r.Stats(); st.Quarantined != 0 {
				return nil, fmt.Errorf("store-crash %s: reopen quarantined %d entries; a crash must never produce quarantine", step, st.Quarantined)
			}
			if temps, err := tempFiles(caseDir); err != nil || len(temps) != 0 {
				return nil, fmt.Errorf("store-crash %s: temp files survived reopen: %v (%v)", step, temps, err)
			}

			// Recovery: the retry that a rebooted server would run.
			if err := r.Put(newArt); err != nil {
				return nil, fmt.Errorf("store-crash %s: recovery Put failed: %v", step, err)
			}
			got, gerr = r.Get(newArt.Key)
			if gerr != nil {
				return nil, fmt.Errorf("store-crash %s: recovery Get failed: %v", step, gerr)
			}
			if err := sameArtifact(got, newArt); err != nil {
				return nil, fmt.Errorf("store-crash %s: recovered artifact damaged: %v", step, err)
			}
		}
	}
	return rep, nil
}

// committedAt reports the spec's answer: is the new artifact durable
// after a crash at this step?
func committedAt(step string) bool {
	for _, s := range putSteps {
		if s == commitStep {
			return true
		}
		if s == step {
			return false
		}
	}
	panic("unknown step " + step)
}

func sameArtifact(got, want *server.Artifact) error {
	switch {
	case !bytes.Equal(got.Data, want.Data):
		return fmt.Errorf("data differs (%d vs %d bytes)", len(got.Data), len(want.Data))
	case !bytes.Equal(got.TOC, want.TOC):
		return fmt.Errorf("toc differs")
	case got.ETag != want.ETag || got.TOCETag != want.TOCETag:
		return fmt.Errorf("validators differ: %s/%s vs %s/%s", got.ETag, got.TOCETag, want.ETag, want.TOCETag)
	case got.Units != want.Units:
		return fmt.Errorf("units differ: %d vs %d", got.Units, want.Units)
	}
	return nil
}

func tempFiles(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			out = append(out, de.Name())
		}
	}
	return out, nil
}

// specStoreArtifact builds a deterministic artifact whose validators
// derive from its content, as the store verifies on load.
func specStoreArtifact(app, data, toc string) *server.Artifact {
	etag := func(b []byte) string {
		sum := sha256.Sum256(b)
		return `"` + hex.EncodeToString(sum[:8]) + `"`
	}
	return &server.Artifact{
		Key:     server.Key{App: app, Order: "scg"},
		Data:    []byte(data),
		TOC:     []byte(toc),
		ETag:    etag([]byte(data)),
		TOCETag: etag([]byte(toc)),
		Units:   2,
	}
}

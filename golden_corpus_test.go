package assignmentmotion

// Golden-corpus regression test (PR 1): the exact optimized+tidied output
// of every .fg file under internal/corpus/fg and examples/ is pinned
// under testdata/golden, and so is the work each phase of the run did
// (init, am, flush: change and iteration counts and dataflow solves,
// visits and sweeps). Any pass change that alters output shows up as an
// exact diff here; so does one that keeps the output but changes the
// fixpoint's rounds or the solver's work. Re-bless intended changes with:
//
//	go test -run TestGoldenFGCorpus -update .
//
// (The embedded corpus package keeps its own independent snapshot with
// -update-corpus-golden; the two pin the same programs on purpose — a
// divergence between them would itself be a finding.)

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"assignmentmotion/internal/core"
	"assignmentmotion/internal/pass"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/golden outputs")

// goldenSourceDirs are the roots scanned (recursively) for .fg programs.
var goldenSourceDirs = []string{"internal/corpus/fg", "examples"}

func goldenInputs(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, dir := range goldenSourceDirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".fg") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scanning %s: %v", dir, err)
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatal("no .fg inputs found; run from the repository root")
	}
	return files
}

func TestGoldenFGCorpus(t *testing.T) {
	seen := map[string]string{} // base name -> source path, to catch clashes
	for _, path := range goldenInputs(t) {
		base := strings.TrimSuffix(filepath.Base(path), ".fg")
		if prev, dup := seen[base]; dup {
			t.Fatalf("golden name clash: %s and %s", prev, path)
		}
		seen[base] = path

		t.Run(base, func(t *testing.T) {
			g, err := ParseFile(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			// Optimize, with a hook recording each phase's work.
			var work strings.Builder
			pl := pass.New(core.Phases(nil)...)
			pl.Hook = func(ev pass.Event) {
				fmt.Fprintf(&work, "%s changes=%d iterations=%d solves=%d visits=%d sweeps=%d\n",
					ev.Pass, ev.Stats.Changes, ev.Stats.Iterations,
					ev.Dataflow.Solves, ev.Dataflow.Visits, ev.Dataflow.Sweeps)
			}
			if _, err := pl.Run(g); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			g.Tidy()
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: optimized graph invalid: %v", path, err)
			}
			checkGolden(t, path, base+".globalg.fg", "optimized output", Format(g))
			checkGolden(t, path, base+".globalg.work", "per-phase work", work.String())
		})
	}
}

// checkGolden compares got with testdata/golden/name, or rewrites the
// golden under -update.
func checkGolden(t *testing.T, path, name, what, got string) {
	t.Helper()
	goldenPath := filepath.Join("testdata", "golden", name)
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%s: missing golden (re-bless with: go test -run TestGoldenFGCorpus -update .): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: %s changed.\n--- want\n%s\n--- got\n%s", path, what, want, got)
	}
}

package corpus

import (
	"embed"
	"flag"
	"os"
	"testing"

	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/typeinference"
)

//go:embed golden/*.fg
var goldenFiles embed.FS

var updateGolden = flag.Bool("update-corpus-golden", false, "rewrite the golden outputs")

// TestGoldenOutputs pins the exact optimized+tidied output for every
// corpus kernel. Re-bless intended changes with
//
//	go test ./internal/corpus -run TestGolden -update-corpus-golden
func TestGoldenOutputs(t *testing.T) {
	for _, name := range Names() {
		g := Load(name)
		apply(g, "globalg")
		g.Tidy()
		got := printer.String(g)
		path := "golden/" + name + ".globalg.fg"
		if *updateGolden {
			// The test binary runs in the package directory, so the path is
			// relative to internal/corpus, exactly like the embed pattern.
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := goldenFiles.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update-corpus-golden): %v", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: output changed.\n--- want\n%s\n--- got\n%s", name, want, got)
		}
	}
}

// TestGoldenFunOutputs pins the optimized+tidied output of every typed
// front-end corpus program: the lowering (inlined calls, decomposed
// expressions, materialized bools) feeds the same global algorithm, and
// its exact result is a regression surface just like the .fg corpus.
// Each program must also type-check strictly. Re-bless with the same
// -update-corpus-golden flag.
func TestGoldenFunOutputs(t *testing.T) {
	for _, name := range FunNames() {
		if _, _, err := typeinference.Compile(FunSource(name)); err != nil {
			t.Errorf("%s: does not type-check: %v", name, err)
			continue
		}
		g := LoadFun(name)
		apply(g, "globalg")
		g.Tidy()
		got := printer.String(g)
		path := "golden/" + name + ".globalg.fg"
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := goldenFiles.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update-corpus-golden): %v", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: output changed.\n--- want\n%s\n--- got\n%s", name, want, got)
		}
	}
}

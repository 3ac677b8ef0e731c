package figures

import (
	"embed"
	"flag"
	"os"
	"testing"

	"assignmentmotion/internal/printer"
)

//go:embed golden/*.fg
var goldenFiles embed.FS

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden GlobAlg outputs")

// TestGoldenGlobAlgOutputs pins the exact optimizer output for every
// figure. These are regression anchors: any change — even a benign
// reordering — must be reviewed and re-blessed with
//
//	go test ./internal/figures -run TestGolden -update-golden
func TestGoldenGlobAlgOutputs(t *testing.T) {
	for _, name := range Names() {
		g := Load(name)
		apply(g, "globalg")
		got := printer.String(g)
		path := "golden/" + name + ".globalg.fg"
		if *updateGolden {
			if err := os.WriteFile("internal/figures/"+path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := goldenFiles.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden file (run with -update-golden): %v", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: optimizer output changed.\n--- want\n%s\n--- got\n%s\n(re-bless with -update-golden if intended)",
				name, want, got)
		}
	}
}

// TestGoldenFilesReparse ensures the checked-in goldens are themselves
// valid programs.
func TestGoldenFilesReparse(t *testing.T) {
	entries, err := goldenFiles.ReadDir("golden")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(Names()) {
		t.Errorf("golden count %d != figure count %d", len(entries), len(Names()))
	}
}

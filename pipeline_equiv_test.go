package assignmentmotion

// Differential test of the pass-manager refactor: the facade Apply now
// routes everything through one session-threaded pipeline, and this test
// pins its output byte-identical to the legacy implementation — the
// hard-wired switch that ran every pass with a fresh session (or none).
// The legacy behaviour is reconstructed here from the internal packages,
// exactly as the old switch called them, over the whole golden corpus.

import (
	"path/filepath"
	"strings"
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/am"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/copyprop"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/dce"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/gvn"
	"assignmentmotion/internal/lcm"
	"assignmentmotion/internal/mr"
	"assignmentmotion/internal/pde"
	"assignmentmotion/internal/rae"
)

// legacyApply reproduces the pre-pipeline facade Apply for one pass.
func legacyApply(t *testing.T, g *Graph, p Pass) {
	t.Helper()
	switch p {
	case PassGlobAlg:
		// The old core.Optimize: three phases, one fresh session.
		s := analysis.NewSession()
		defer s.Close()
		g.SplitCriticalEdges()
		core.Initialize(g)
		if _, err := am.TryRunWith(g, s); err != nil {
			t.Fatal(err)
		}
		flush.RunWith(g, s)
	case PassInit:
		g.SplitCriticalEdges()
		core.Initialize(g)
	case PassAM:
		am.Run(g)
	case PassAMRestricted:
		am.RunRestricted(g)
	case PassAHT:
		g.SplitCriticalEdges()
		aht.Apply(g)
	case PassRAE:
		rae.EliminateBlocks(g)
	case PassEM:
		lcm.Run(g)
	case PassMR:
		mr.Run(g)
	case PassEMCP:
		// The old facade RunEMCP: fresh sessions inside every round.
		for i := 0; i < 16; i++ {
			before := g.Encode()
			lcm.Run(g)
			copyprop.Run(g)
			if g.Encode() == before {
				return
			}
		}
	case PassFlush:
		flush.Run(g)
	case PassCopyProp:
		copyprop.Run(g)
	case PassGVN:
		gvn.Run(g)
	case PassGVNEMCP:
		// Like PassEMCP, but with a value-numbering step opening each round.
		for i := 0; i < 16; i++ {
			before := g.Encode()
			gvn.Run(g)
			lcm.Run(g)
			copyprop.Run(g)
			if g.Encode() == before {
				return
			}
		}
	case PassDCE:
		dce.Run(g)
	case PassPDE:
		pde.Run(g)
	case PassSplit:
		g.SplitCriticalEdges()
	case PassTidy:
		g.Tidy()
	default:
		t.Fatalf("legacyApply: unknown pass %q", p)
	}
}

func TestPipelineMatchesLegacyApply(t *testing.T) {
	for _, path := range goldenInputs(t) {
		base := strings.TrimSuffix(filepath.Base(path), ".fg")
		orig, err := ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, p := range Passes() {
			p := p
			t.Run(base+"/"+string(p), func(t *testing.T) {
				want := orig.Clone()
				legacyApply(t, want, p)

				got := orig.Clone()
				if err := Apply(got, p); err != nil {
					t.Fatalf("Apply(%s): %v", p, err)
				}
				if w, g := Format(want), Format(got); w != g {
					t.Errorf("pipeline output diverges from legacy for %s.\n--- legacy\n%s\n--- pipeline\n%s", p, w, g)
				}
			})
		}
		// A multi-pass pipeline threads ONE session end to end; the legacy
		// switch ran each pass in isolation. The outputs must still match.
		t.Run(base+"/init,am,flush", func(t *testing.T) {
			want := orig.Clone()
			for _, p := range []Pass{PassInit, PassAM, PassFlush} {
				legacyApply(t, want, p)
			}
			got := orig.Clone()
			if err := Apply(got, PassInit, PassAM, PassFlush); err != nil {
				t.Fatal(err)
			}
			if w, g := Format(want), Format(got); w != g {
				t.Errorf("shared-session pipeline diverges from isolated passes.\n--- legacy\n%s\n--- pipeline\n%s", w, g)
			}
		})
	}
}

func TestApplyUnknownPassSuggests(t *testing.T) {
	g := MustParse("graph g { entry b1 exit b1 block b1 { skip } }")
	err := Apply(g, "flus")
	if err == nil || !strings.Contains(err.Error(), `did you mean "flush"`) {
		t.Errorf("want did-you-mean error, got %v", err)
	}
	if err := Apply(g, "zzzz-not-a-pass"); err == nil {
		t.Error("nonsense pass accepted")
	}
}

package rae

import (
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/parse"
)

func TestEliminateBlocksMatchesInstructionLevelFixpoint(t *testing.T) {
	// The block-level walk may collapse an in-block redundancy chain in
	// one application where the batch instruction-level analysis needs
	// one application per link, so the comparison is between fixpoints.
	toFixpoint := func(step func() int) int {
		total := 0
		for {
			n := step()
			total += n
			if n == 0 {
				return total
			}
		}
	}
	run := func(seed int64, structured bool) {
		var base = cfggen.Structured(seed, cfggen.Config{Size: 10})
		if !structured {
			base = cfggen.Unstructured(seed, cfggen.Config{Size: 12})
		}
		base.SplitCriticalEdges()
		g1 := base.Clone()
		g2 := base.Clone()
		n1 := toFixpoint(func() int { return eliminate(g1) })
		n2 := toFixpoint(func() int { return eliminateBlocks(g2) })
		if n1 != n2 {
			t.Errorf("seed %d structured=%v: removed %d vs %d", seed, structured, n1, n2)
		}
		if g1.Encode() != g2.Encode() {
			t.Errorf("seed %d structured=%v: fixpoints differ:\n%s\nvs\n%s",
				seed, structured, g1.Encode(), g2.Encode())
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		run(seed, true)
		run(seed, false)
	}
}

func TestEliminateBlocksCollapsesInBlockChain(t *testing.T) {
	// The "successively eliminating" reading: a duplicated dependency
	// chain inside ONE block disappears in a single application.
	g := parse.MustParse(`
graph chain {
  entry a
  exit e
  block a {
    v1 := v0 + 1
    v2 := v1 + 1
    v1 := v0 + 1
    v2 := v1 + 1
    goto e
  }
  block e { out(v1, v2) }
}
`)
	if n := eliminateBlocks(g); n != 2 {
		t.Errorf("block-level removed %d, want 2 in one application", n)
	}
	g2 := parse.MustParse(`
graph chain {
  entry a
  exit e
  block a {
    v1 := v0 + 1
    v2 := v1 + 1
    v1 := v0 + 1
    v2 := v1 + 1
    goto e
  }
  block e { out(v1, v2) }
}
`)
	if n := eliminate(g2); n != 1 {
		t.Errorf("instruction-level removed %d in one application, want 1", n)
	}
}

func TestEliminateBlocksWithinBlockChain(t *testing.T) {
	// The in-block walk must see availability established earlier in the
	// same block and respect in-block kills.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := a + b
    z := y
    y := a + b
    a := 1
    y := a + b
    goto e
  }
  block e { out(y, z) }
}
`)
	if n := eliminateBlocks(g); n != 1 {
		t.Errorf("removed %d, want 1 (second occurrence only; third follows a kill)", n)
	}
}

func TestEliminateBlocksEmptyUniverse(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a { out(x)
    goto e }
  block e { skip }
}
`)
	if n := eliminateBlocks(g); n != 0 {
		t.Errorf("removed %d from assignment-free program", n)
	}
}

package verify_test

import (
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/metrics"
)

// TestFlushImprovesTemporaryCosts is the Theorem 5.4 experiment: comparing
// GAssMot (the "busy" earliest placement after init + assignment motion)
// with GGlobAlg (after the final flush), the flush must never increase —
// and typically strictly decreases — the number of temporaries, their
// static initializations, their lifetimes, and the dynamic count of
// assignments to temporaries, while keeping expression evaluations intact
// (Lemma 4.4(3b): GGlobAlg ~exp GAssMot).
func TestFlushImprovesTemporaryCosts(t *testing.T) {
	strictLifetimeWins := 0
	strictTempWins := 0
	for seed := int64(0); seed < 30; seed++ {
		busy := cfggen.Structured(seed, cfggen.Config{Size: 10})
		apply(busy, "init", "am")

		lazy := busy.Clone()
		apply(lazy, "flush")

		mBusy := metrics.Measure(busy)
		mLazy := metrics.Measure(lazy)
		if pb, pl := metrics.MaxTempPressure(busy), metrics.MaxTempPressure(lazy); pl > pb {
			t.Errorf("seed %d: flush increased temp pressure %d -> %d", seed, pb, pl)
		}
		if mLazy.TempLifetime > mBusy.TempLifetime {
			t.Errorf("seed %d: flush increased lifetimes %d -> %d", seed, mBusy.TempLifetime, mLazy.TempLifetime)
		}
		if mLazy.TempInits > mBusy.TempInits {
			t.Errorf("seed %d: flush increased static inits %d -> %d", seed, mBusy.TempInits, mLazy.TempInits)
		}
		if mLazy.TempLifetime < mBusy.TempLifetime {
			strictLifetimeWins++
		}

		rep := Equivalent(busy, lazy, runsPerSeed, seed*5+2)
		if !rep.Equivalent {
			t.Fatalf("seed %d: flush changed semantics: %s", seed, rep.Detail)
		}
		if rep.B.TempAssignExecs > rep.A.TempAssignExecs {
			t.Errorf("seed %d: flush increased dynamic temp assignments %d -> %d",
				seed, rep.A.TempAssignExecs, rep.B.TempAssignExecs)
		}
		if rep.B.TempAssignExecs < rep.A.TempAssignExecs {
			strictTempWins++
		}
		if rep.B.ExprEvals != rep.A.ExprEvals {
			t.Errorf("seed %d: flush changed expression evaluations %d -> %d (violates ~exp)",
				seed, rep.A.ExprEvals, rep.B.ExprEvals)
		}
	}
	// The effect must actually show up somewhere on the suite, or the
	// experiment is vacuous.
	if strictLifetimeWins == 0 {
		t.Error("flush never shortened a lifetime on the whole suite")
	}
	if strictTempWins == 0 {
		t.Error("flush never removed a dynamic temp assignment on the whole suite")
	}
}

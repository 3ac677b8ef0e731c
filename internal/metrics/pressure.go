package metrics

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/ir"
)

// MaxTempPressure returns the maximum number of temporaries simultaneously
// live at any program point — the register-pressure cost of the introduced
// temporaries that the paper's temporary-optimality (lifetime ranges,
// Theorem 5.4) is a proxy for. A temporary is live at a point when some
// path from there reaches a use of it before a re-initialization.
func MaxTempPressure(g *ir.Graph) int {
	tx := analysis.NewTempIndex(g, nil)
	if len(tx.Temps) == 0 {
		return 0
	}
	live := tx.Liveness(analysis.NewProg(g), nil)
	max := 0
	for i := range live.In {
		if c := live.In[i].PopCount(); c > max {
			max = c
		}
		if c := live.Out[i].PopCount(); c > max {
			max = c
		}
	}
	return max
}

package assignmentmotion

// The analysis pin: one SHA-256 digest per pipeline over a fixed input
// set (the fg and fun corpora, the paper's figures, and cfggen
// Structured/Unstructured programs of sizes 6, 12 and 40, seeds 1-10).
// Each digest covers the printed output and every pass's
// Changes/Iterations, plus its Dataflow solves/visits/sweeps for every
// pass except mr, whose reported solver work depends on how its three
// uni-directional systems are scheduled. Two more digests per
// temp-introducing pipeline cover metrics.TotalLifetime and
// metrics.MaxTempPressure of its output. The pipelines are the ones whose
// analyses are not already pinned by the golden corpus: the baselines,
// pde, the restricted loop, and the multi-pass runs that hand one
// session's graph to a second motion phase or re-initialize a graph
// that carries temporaries.
//
// Run by CI as "Analysis outputs are current". A digest that moves means
// an analysis computes something else. A failing pipeline logs one digest
// per input; diff that log against the same run at the last commit that
// passed to find the program.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/figures"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/pass"
)

// analysisPins maps a comma-separated pipeline to the digest of its runs
// over analysisPinInputs.
var analysisPins = []struct{ pipeline, digest string }{
	{"mr", "95f028ffb8805a6fb2452a3744b29872c0a869bf59839fce5ccffee4caab3c1d"},
	{"em", "186608134d7f16789081630918740290d7b89bbc71a16c16b46276e489cbb541"},
	{"emcp", "ca2c5de8d126bc227094b79bc0d668564ac5b2e1fc939ac3c2e26ef1debe79c6"},
	{"gvn-emcp", "df76d614c3e9860d65d622a4fe52c401b39acc1681277a2e3abf73d14f01109e"},
	{"am-restricted", "5b887bf47fea9afe25ae58a5e3b6e008ec4e1073312d6df4eca8e1c046c0a844"},
	{"pde", "d6b2a0a92f7ce36379e05ecbad228c25d58dfff27f667332e068018aefe9d2be"},
	{"rae,am-restricted", "6589e49d6c9efcdbb05c4160e564e61678e64fe651c3550029c38afd30168bb1"},
	{"am,em", "00cd5221b198ca4b731684c8c83f6327650590539b614aca916f1f88aa7c83ce"},
	{"emcp,globalg", "ebb02932daefe1d6bafdbf4ccdea0ddada6a6a04aea721f52f7a3d27074f6d75"},
	{"globalg,globalg", "73ac91f15087ab8ccc001b9524b585c5451c2fe03e17432b09106532b0a8a319"},
}

// metricPins maps a pipeline to the digest of TotalLifetime and
// MaxTempPressure of its outputs over analysisPinInputs.
var metricPins = []struct{ pipeline, digest string }{
	{"globalg", "f7579295ec94b584be0a43a4f39eb29b0c444b01105bf8bcb5464e4ec804b9b7"},
	{"emcp", "19c805c06c5447afb3d905ba5beb986f64574a2430ceb82f96025193ab641c2a"},
	{"gvn-emcp", "2f4c36e6432e880012aecb2e312f9b0f2d0a28490a80f821b44ebe490af95bd9"},
}

type pinInput struct {
	name string
	g    *ir.Graph
}

func analysisPinInputs() []pinInput {
	var in []pinInput
	for _, n := range corpus.Names() {
		in = append(in, pinInput{"fg/" + n, corpus.Load(n)})
	}
	for _, n := range corpus.FunNames() {
		in = append(in, pinInput{"fun/" + n, corpus.LoadFun(n)})
	}
	for _, n := range figures.Names() {
		in = append(in, pinInput{"figure/" + n, figures.Load(n)})
	}
	for _, size := range []int{6, 12, 40} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := cfggen.Config{Size: size}
			in = append(in,
				pinInput{fmt.Sprintf("structured%d/seed%d", size, seed), cfggen.Structured(seed, cfg)},
				pinInput{fmt.Sprintf("unstructured%d/seed%d", size, seed), cfggen.Unstructured(seed, cfg)})
		}
	}
	return in
}

func TestAnalysisOutputsPinned(t *testing.T) {
	inputs := analysisPinInputs()
	check := func(t *testing.T, pipeline, want string, record func(h hash.Hash, g *ir.Graph, rep pass.Report)) {
		t.Parallel()
		all := sha256.New()
		var each []string
		for _, in := range inputs {
			g := in.g.Clone()
			pl, err := pass.FromNames(strings.Split(pipeline, ",")...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := pl.Run(g)
			h := sha256.New()
			fmt.Fprintf(h, "%s err=%v\n", in.name, err)
			record(h, g, rep)
			sum := h.Sum(nil)
			all.Write(sum)
			each = append(each, in.name+" "+hex.EncodeToString(sum[:8]))
		}
		if got := hex.EncodeToString(all.Sum(nil)); got != want {
			t.Errorf("%s: digest %s, want %s", pipeline, got, want)
			t.Logf("per-input digests:\n%s", strings.Join(each, "\n"))
		}
	}
	for _, pin := range analysisPins {
		t.Run(pin.pipeline, func(t *testing.T) {
			check(t, pin.pipeline, pin.digest, func(h hash.Hash, g *ir.Graph, rep pass.Report) {
				for _, ev := range rep.Events {
					fmt.Fprintf(h, "%s %s changes=%d iterations=%d", ev.Pass, ev.Outcome, ev.Stats.Changes, ev.Stats.Iterations)
					if ev.Pass != "mr" {
						fmt.Fprintf(h, " dataflow=%+v", ev.Dataflow)
					}
					fmt.Fprintln(h)
				}
				fmt.Fprint(h, Format(g))
			})
		})
	}
	for _, pin := range metricPins {
		t.Run(pin.pipeline+"/metrics", func(t *testing.T) {
			check(t, pin.pipeline, pin.digest, func(h hash.Hash, g *ir.Graph, _ pass.Report) {
				fmt.Fprintf(h, "lifetime=%d pressure=%d\n", metrics.TotalLifetime(g), metrics.MaxTempPressure(g))
			})
		})
	}
}

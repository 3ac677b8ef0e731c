package ir_test

import (
	"fmt"
	"sync"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/typeinference"
)

type namedGraph struct {
	name string
	g    *ir.Graph
}

var (
	kernelSetOnce sync.Once
	kernelSet     []namedGraph
)

// kernelGraphs is the graph set the serialization kernels are compared on:
// the fg and fun corpora and cfggen Structured and Unstructured graphs of
// 6, 12, 40 and 200 blocks on seeds 1–20, each before and after
// core.Optimize (which adds temporaries and their bindings), 356 graphs.
// optimize is core.Optimize on a fresh session. It panics on an error:
// the graphs here run without a budget or deadline, so only a fixpoint
// bug can fail.
func optimize(g *ir.Graph) {
	s := analysis.NewSession()
	defer s.Close()
	if _, err := core.Optimize(g, s); err != nil {
		panic(err)
	}
}

func kernelGraphs(t testing.TB) []namedGraph {
	t.Helper()
	kernelSetOnce.Do(func() {
		add := func(name string, mk func() *ir.Graph) {
			opt := mk()
			optimize(opt)
			kernelSet = append(kernelSet, namedGraph{name, mk()}, namedGraph{name + "/optimized", opt})
		}
		for _, n := range corpus.Names() {
			add(n, func() *ir.Graph { return corpus.Load(n) })
		}
		for _, n := range corpus.FunNames() {
			add(n, func() *ir.Graph {
				g, _, err := typeinference.Compile(corpus.FunSource(n))
				if err != nil {
					panic(err)
				}
				return g
			})
		}
		for _, size := range []int{6, 12, 40, 200} {
			for seed := int64(1); seed <= 20; seed++ {
				cfg := cfggen.Config{Size: size}
				add(fmt.Sprintf("structured%d_%d", size, seed), func() *ir.Graph { return cfggen.Structured(seed, cfg) })
				add(fmt.Sprintf("unstructured%d_%d", size, seed), func() *ir.Graph { return cfggen.Unstructured(seed, cfg) })
			}
		}
	})
	return kernelSet
}

// TestCanonicalFormMatchesReference: Encode and Fingerprint produce the
// reference serialization's bytes on every graph of the set.
func TestCanonicalFormMatchesReference(t *testing.T) {
	gs := kernelGraphs(t)
	if len(gs) != 356 {
		t.Fatalf("graph set has %d graphs, want 356", len(gs))
	}
	for _, ng := range gs {
		if got, want := ng.g.Encode(), ir.RefEncode(ng.g); got != want {
			t.Errorf("%s: Encode differs from the reference:\n%s\nwant\n%s", ng.name, got, want)
		}
		if got, want := ng.g.Fingerprint(), ir.RefFingerprint(ng.g); got != want {
			t.Errorf("%s: Fingerprint %s, reference %s", ng.name, got.Short(), want.Short())
		}
		c := ng.g.Clone()
		if c.Encode() != ng.g.Encode() || c.Fingerprint() != ng.g.Fingerprint() {
			t.Errorf("%s: clone differs from its source", ng.name)
		}
	}
}

// pinnedFingerprints were recorded before Fingerprint appended into one
// buffer. Every cache tier keys on these hashes, so they must not move.
var pinnedFingerprints = []struct{ name, hex string }{
	{"constladder", "b5c50fa04b76110ec339b94d1b1b616450bf9d3d366d5e48c0b21c2bc9b0a78e"},
	{"constladder/optimized", "b185ae2be67cc434da75cc4c51823db6c78c27c5ee37e35868c01b4c8835e326"},
	{"dotprod", "725d11e26cd6437a49e50c28ef226be88319b4a63ad00da32fc674f0d505ba6a"},
	{"dotprod/optimized", "086f708fe6644217797428e61275d2483124cff14673048b4f9c947ecfd7bff2"},
	{"ep_chain_base", "4e666edd915604f0834d30bbc847c985c8c341bbd2805d0d7dbde2fd2ad239ea"},
	{"ep_chain_base/optimized", "12d68c7c5fae017ba4e638129bea69a3e42ea092b890d7a831e609c47999e492"},
	{"ep_chain_edit", "97db730a90ac3c38f7615207df37eea27817395ae77439213023f00a6d1ed5d2"},
	{"ep_chain_edit/optimized", "da10745fb390a41c5caed2499ba1fb9b19f3b357f9376ae07c7fc3342a9cc65c"},
	{"ep_diamond_base", "40eeaa055ec4733add2d97a5b2028a50f135a429910f4a1f20cb4c85764b8e1a"},
	{"ep_diamond_base/optimized", "7b88fba90afe777b8cb54a1bc79cd34f888f1abd299b3a3587949f3908bbc3bd"},
	{"ep_diamond_contained", "5e586864c7608b9549312e874608a23099f93109bb18612e74d4fb7fd674516f"},
	{"ep_diamond_contained/optimized", "8b1273667bb92926200bacb9441dab19fb6e4704e5d8959866402df1030c66ac"},
	{"ep_diamond_escape", "1268ce920734abacc389545ce41ac859a72072baab611912905d6a5fe6050008"},
	{"ep_diamond_escape/optimized", "382eade64882b95b6d323579da7ead464fac3f69157f39a1cd16ff491bc6ee01"},
	{"exprchain", "2f9e1cb52ba7786396779cde365801d2f987c0255743a46c29cd71753606d5b6"},
	{"exprchain/optimized", "0a6154b7f6a277c9051f4a78d59c2a0156bd1c01266464098f9dff537eda5386"},
	{"gcdish", "62ba55ae6e7795942e9afbbdc251251ea4cffc19f89cc9f7cd55dbe21cb6d655"},
	{"gcdish/optimized", "721caec803f8547d9e2e8e6f83562964ab7b3b9a9b1d266c89f995f780a86e3d"},
	{"interp", "f5d7824f676b9b924b10c7897758733779670f5a8795de116b919a94419d7c4b"},
	{"interp/optimized", "d6b85f6b6fb926c68e2e18b018a6a5fef51b50e1e0e28d889c7b2c88ff2eda5f"},
	{"polyeval", "a2123790cdc7d79f46dd7c5c474deb031f93dc60c9a932870af3f6ca1bf0c034"},
	{"polyeval/optimized", "a333161f9afe3c088072e4b31669356d3b0eceab68ba7790cb30898a3442901a"},
	{"quantize", "904a3d108abc7b11695b83d756c9cdabd1a09b0922d1fefe6510b15c724b3528"},
	{"quantize/optimized", "10c8e358f28ecefa4e10a01fe178281a378fbe28522726c74efebc0a006a3d44"},
	{"statemachine", "d47da80007dad2a8305af81a9c2a8d786e04ae5c2120d1bb0565df0dab3882a5"},
	{"statemachine/optimized", "3d4d340e76c3b7026ae15098a459cd05b579974392981b256c351909599c4e58"},
	{"fn_dispatch", "d8fcd817256a5d5ef2bee2efe0fe0002c2b4ebc05fb5877c6e0019e611831d1d"},
	{"fn_dispatch/optimized", "2cae523cad7abd7731e082b2a4640fbc68c529b4080b8875a900b700118eebee"},
	{"fn_parity", "201697889a8cc323d07157f8d15690c000c83f13c0b1f8c518b2b7ff0ac74de3"},
	{"fn_parity/optimized", "2afad80b6e4cb9a7c008924e6e37869e9975bc6e1c4d9dd9685d74c32e9e0380"},
	{"fn_poly", "eb2f1ecbbd981991419599acefc771d9a649c0cbb2cc81e42d40f199624ec92e"},
	{"fn_poly/optimized", "f50e1ab69c8c5db8463ad50b8e50afbe4d605e8134ff9ada9eae745c0e2c4365"},
	{"fn_power", "b01d1aa078ef638e0269ac079f4669c20653b3385abc620e6b38d249c02f58d3"},
	{"fn_power/optimized", "f65633b3a12bac4992754c6571ca63f00038e4b34d70d6072201b43510b5d9fd"},
	{"fn_stats", "c27ee783d8464bce50a1f8a38753212eca6e2a21c8b5925106a9a52a8ae693f3"},
	{"fn_stats/optimized", "c97820cb010e275e7ec89913150e6e30130c130c1406fbbfb4c35c9c6363671a"},
}

func TestFingerprintPinned(t *testing.T) {
	got := map[string]string{}
	for _, ng := range kernelGraphs(t) {
		got[ng.name] = ng.g.Fingerprint().String()
	}
	for _, p := range pinnedFingerprints {
		if got[p.name] != p.hex {
			t.Errorf("%s: fingerprint %s, pinned %s", p.name, got[p.name], p.hex)
		}
	}
}

// TestKernelAllocs pins the allocations of Clone, Encode, Fingerprint and
// Validate with fixed bounds that hold from ~150 to ~10k instructions:
// each kernel carves or appends into a few buffers, never one per
// instruction. Validate's are its mark array, its work stack and the
// name set of its duplicate check.
func TestKernelAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes a 1000-block graph")
	}
	bounds := []struct {
		kernel string
		max    float64
		run    func(*ir.Graph)
	}{
		{"Clone", 24, func(g *ir.Graph) { g.Clone() }},
		{"Encode", 4, func(g *ir.Graph) { _ = g.Encode() }},
		{"Fingerprint", 32, func(g *ir.Graph) { g.Fingerprint() }},
		{"Validate", 16, func(g *ir.Graph) {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, size := range []int{12, 200, 1000} {
		g := cfggen.Structured(1, cfggen.Config{Size: size})
		opt := cfggen.Structured(1, cfggen.Config{Size: size})
		optimize(opt)
		for _, ng := range []namedGraph{{fmt.Sprint("structured", size), g}, {fmt.Sprint("structured", size, "/optimized"), opt}} {
			for _, k := range bounds {
				allocs := testing.AllocsPerRun(5, func() { k.run(ng.g) })
				t.Logf("%s %s (%d instrs): %.0f allocs", ng.name, k.kernel, ng.g.InstrCount(), allocs)
				if allocs > k.max {
					t.Errorf("%s: %s made %.0f allocations, want at most %.0f", ng.name, k.kernel, allocs, k.max)
				}
			}
		}
	}
}

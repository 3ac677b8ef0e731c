package parse_test

import (
	"reflect"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/typeinference"
	"assignmentmotion/internal/verify"
)

// A prog source is a typed unit with no functions: Compile is its front
// end. These tests keep the behaviours of the structured mini-language.

func runProg(t *testing.T, src string, env map[ir.Var]int64) interp.Result {
	t.Helper()
	g, _, err := typeinference.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if verr := g.Validate(); verr != nil {
		t.Fatal(verr)
	}
	return interp.Run(g, env, 0)
}

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

func TestProgStraightLine(t *testing.T) {
	r := runProg(t, `
prog p {
  x := a + b * 2
  y := x - 1
  out(x, y)
}
`, map[ir.Var]int64{"a": 1, "b": 3})
	if !reflect.DeepEqual(r.Trace, []int64{7, 6}) {
		t.Errorf("trace = %v", r.Trace)
	}
}

func TestProgIfElse(t *testing.T) {
	src := `
prog p {
  if x > 0 {
    y := 1
  } else {
    y := 2
  }
  out(y)
}
`
	if r := runProg(t, src, map[ir.Var]int64{"x": 5}); r.Trace[0] != 1 {
		t.Errorf("then: %v", r.Trace)
	}
	if r := runProg(t, src, map[ir.Var]int64{"x": -5}); r.Trace[0] != 2 {
		t.Errorf("else: %v", r.Trace)
	}
}

func TestProgIfWithoutElse(t *testing.T) {
	src := `
prog p {
  y := 9
  if x > 0 {
    y := 1
  }
  out(y)
}
`
	if r := runProg(t, src, map[ir.Var]int64{"x": 5}); r.Trace[0] != 1 {
		t.Errorf("then: %v", r.Trace)
	}
	if r := runProg(t, src, map[ir.Var]int64{"x": -5}); r.Trace[0] != 9 {
		t.Errorf("skip: %v", r.Trace)
	}
}

func TestProgWhile(t *testing.T) {
	r := runProg(t, `
prog p {
  s := 0
  i := 0
  while i < 5 {
    s := s + i
    i := i + 1
  }
  out(s, i)
}
`, nil)
	if !reflect.DeepEqual(r.Trace, []int64{10, 5}) {
		t.Errorf("trace = %v", r.Trace)
	}
}

func TestProgDoWhile(t *testing.T) {
	// The body runs at least once even when the condition is false.
	r := runProg(t, `
prog p {
  n := 0
  do {
    n := n + 1
  } while n < 0
  out(n)
}
`, nil)
	if !reflect.DeepEqual(r.Trace, []int64{1}) {
		t.Errorf("trace = %v", r.Trace)
	}
}

func TestProgNestedLoopsBreakContinue(t *testing.T) {
	r := runProg(t, `
prog p {
  total := 0
  i := 0
  while i < 4 {
    i := i + 1
    if i == 2 {
      continue
    }
    j := 0
    while j < 10 {
      j := j + 1
      if j == 3 {
        break
      }
      total := total + 1
    }
  }
  out(total, i)
}
`, nil)
	// i = 1,3,4 contribute 2 inner iterations each (j=1,2); i=2 skipped.
	if !reflect.DeepEqual(r.Trace, []int64{6, 4}) {
		t.Errorf("trace = %v", r.Trace)
	}
}

func TestProgNestedConditionExpr(t *testing.T) {
	r := runProg(t, `
prog p {
  if a * 2 + 1 > b - 3 {
    x := 1
  } else {
    x := 0
  }
  out(x)
}
`, map[ir.Var]int64{"a": 1, "b": 2})
	if r.Trace[0] != 1 { // 3 > -1
		t.Errorf("trace = %v", r.Trace)
	}
}

func TestProgOutWithExpressions(t *testing.T) {
	r := runProg(t, `
prog p {
  out(a + b, a * b, 7)
}
`, map[ir.Var]int64{"a": 2, "b": 5})
	if !reflect.DeepEqual(r.Trace, []int64{7, 10, 7}) {
		t.Errorf("trace = %v", r.Trace)
	}
}

func TestProgErrors(t *testing.T) {
	cases := []struct{ name, src, code string }{
		{"break outside loop", `prog p { break }`, typeinference.CodeLoopContext},
		{"bad cond", `prog p { if x { y := 1 } }`, typeinference.CodeCondNotBool},
		{"missing brace", `prog p { if x > 0 { y := 1 }`, ""},
		{"keyword var", `prog p { while := 3 }`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, res, err := typeinference.Compile(c.src)
			if err == nil {
				t.Fatalf("accepted %q", c.src)
			}
			if c.code != "" && (res == nil || len(res.Errs()) == 0 || res.Errs()[0].Code != c.code) {
				t.Errorf("err = %v, want diagnostic %s", err, c.code)
			}
		})
	}
}

// TestProgUnreachableAfterBreak: a statement after break is dropped with
// an unreachable-code warning, not rejected.
func TestProgUnreachableAfterBreak(t *testing.T) {
	g, res, err := typeinference.Compile(`prog p { x := 0 while x < 1 { break x := 1 } out(x) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 1 || res.Diags[0].Code != typeinference.CodeUnreachable || res.Diags[0].Severity != typeinference.SeverityWarning {
		t.Fatalf("diags = %+v, want one %s warning", res.Diags, typeinference.CodeUnreachable)
	}
	if r := interp.Run(g, nil, 0); !reflect.DeepEqual(r.Trace, []int64{0}) {
		t.Errorf("trace = %v, want [0]", r.Trace)
	}
}

func TestProgProducesOptimizableGraphs(t *testing.T) {
	// The desugared graph feeds straight into the optimizer; the
	// loop-invariant division must leave the do-while loop.
	g, _, err := typeinference.Compile(`
prog quantish {
  k := 0
  do {
    scale := num / den
    v := v * scale
    k := k + 1
  } while k < 6
  out(v, k)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	g.MustValidate()
	if len(g.Blocks) < 4 {
		t.Errorf("suspiciously few blocks: %d", len(g.Blocks))
	}
}

// TestProgPinnedDifferential runs the seeded generator of proggen_test.go
// through Compile. The table was recorded from the separate prog parser
// this front end replaced (ParseProgram, since deleted): the hex
// fingerprint of each program it accepted, or its error. An accepted seed
// must compile to the same fingerprint, so it keeps its cache key, its
// optimized result and its trace; block names may differ. A rejected seed
// is a valid program: it must compile, validate, and optimize to a
// trace-equivalent program.
func TestProgPinnedDifferential(t *testing.T) {
	accepted := 0
	for _, p := range pinnedProgs {
		src := genProg(p.seed)
		g, _, err := typeinference.Compile(src)
		if err != nil {
			t.Errorf("seed %d: %v\n%s", p.seed, err, src)
			continue
		}
		if p.hex != "" {
			accepted++
			if got := g.Fingerprint().String(); got != p.hex {
				t.Errorf("seed %d: fingerprint %s, pinned %s\n%s", p.seed, got, p.hex, src)
			}
			continue
		}
		if verr := g.Validate(); verr != nil {
			t.Errorf("seed %d (rejected as %s): %v", p.seed, p.parentErr, verr)
			continue
		}
		opt := g.Clone()
		optimize(opt)
		if rep := verify.Equivalent(g, opt, 8, p.seed); !rep.Equivalent {
			t.Errorf("seed %d (rejected as %s): optimized trace differs: %s\n%s", p.seed, p.parentErr, rep.Detail, src)
		}
	}
	if accepted != 242 || len(pinnedProgs) != 300 {
		t.Errorf("table holds %d seeds, %d accepted; want 300 and 242", len(pinnedProgs), accepted)
	}
}

// pinnedProgs: seeds 1–300 of genProg under the deleted ParseProgram.
var pinnedProgs = []struct {
	seed           int64
	hex, parentErr string
}{
	{1, "cd3addf1edf7ba679c0a75c2b138c3847931186d74efcb04b71bf96314a976fe", ""},
	{2, "21039506a99c661e774e139d740403875886c7d9cfe8dc76a356bc5184f2f193", ""},
	{3, "8faac8deb157e57efe7af3b191b16d4c13f96595ab57743df7a16e8669e98266", ""},
	{4, "", "prog \"p4\": block b5 unreachable from entry"},
	{5, "", "prog \"p5\": ir: unknown entry block \"b1\""},
	{6, "b76b58a5377f3b4efda619549e64444a9d97c95a32a52625c04a3c2e702d98f5", ""},
	{7, "d201f9d1cfb49046ad44f71defa4e81515c1287d36340b1a3a0156f67aa587bd", ""},
	{8, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{9, "795b7206f0f68b6d0c220c1c070c30d164efb1907ab65fb97fe60203ee680685", ""},
	{10, "e1709596b18f1cf8a0c10097ea387502b65f9a20e47e6f46b61dd584877a904e", ""},
	{11, "c53722f46ce95c7800e19896df893ce0881dfc5475e0e2c62f8283184a11d0f2", ""},
	{12, "", "prog \"p12\": block b11 unreachable from entry"},
	{13, "", "prog \"p13\": block b8 unreachable from entry"},
	{14, "4c4d1027d4853539318dcec3ee8d1ff3741e2525a152fc6e13b5eb9ad36e6093", ""},
	{15, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{16, "7e831d34385b5eb42eddc3c2c906338cf1b5edfecd7fed34fbfe365b25ed59cd", ""},
	{17, "4d60b4eaac379d429663121f634d020aaef0ad77d1df93cbdba8504f4bd616e1", ""},
	{18, "91da28f2dd4c626059e5eddce658e3eabb38df0567534c43054346b4a88301a5", ""},
	{19, "be283ad97d5a1e047e0e891707caeb1b5fb7401b6a4cc817f6c98d19fe8b6474", ""},
	{20, "2696d9e30694817926660848e1426bf451a8dd7eecf751f0d886a192570a0573", ""},
	{21, "", "prog \"p21\": ir: unknown entry block \"b1\""},
	{22, "91a69cf70aa07cc915c4809c06cc931715dccd46e6489faaae59e785f4a1b942", ""},
	{23, "f21582a45c0b93d51535acc0f939ab6e3440bf36f162a82886ef78f15c9b3f37", ""},
	{24, "cd1f26b3d0f2778afdc407ae6d3361f1dbaa8fc70ed2a4fb5e7ac8afef29512c", ""},
	{25, "c8c573c859c7f8c002255aca5393400cc2f9fe926a84a55a02a99ab71e11f8bc", ""},
	{26, "feedb5974ff747147c09e441ccfa45c66832efcc90117f4afb7e9f69a7f6402b", ""},
	{27, "1300712830cf00471eca2300ca0ded17397cb3349e3a2466c0ff00af66e37ee3", ""},
	{28, "883940b511af81744074192dc37f2b9492fdbc8c915c64b160ca10237eb3a031", ""},
	{29, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{30, "bb3f6e8b914898c4c364ce02da1ce053585e89d78e8ebea1173b36bc8ffbe589", ""},
	{31, "ce5fd672a6f2c2b92a2b85a1e0dd2186bd46d3c49e811f5aa07a3d387f2f062e", ""},
	{32, "98806b30f26c26e71e0b037e7b774da6b66859b2a6a3c10e2e76a48692278578", ""},
	{33, "", "prog \"p33\": block b3 unreachable from entry"},
	{34, "d411d10c211457e048e105c81f4248d54b62fe040718734691081d44a5c214d8", ""},
	{35, "", "prog \"p35\": ir: unknown entry block \"b1\""},
	{36, "a142633f595854a784439400a9e3a70f21c1a6b4a4b2793f4ccbb3df1360f660", ""},
	{37, "f22227fd3e9953dc897cd1af417e7e706603b09ffe419210bd6b5d3c436b8c80", ""},
	{38, "3851126a74c6c7ed5b456e25cacda9d84d512c06e5770f1dcf4582af5c2298b5", ""},
	{39, "06a4f089741017d02a68b04660d30e980a272c561c8e47431269f03b26f3ad5d", ""},
	{40, "e013c01f7fcd22291eb8971c46d46879efb4fc7865b8a9436f78524c2e1fa3c0", ""},
	{41, "f76e6572422fde0a13e659d3a4a9a3ea3d2a6df2d711ba05c5c1bae77cdc27dc", ""},
	{42, "3e80ae2029bb317719cd77fcc4453d49f155f6d587c143ca6c065b8890bc50cb", ""},
	{43, "8a12d202798ed046b7a6e93e822a33c137e930cbff9fb79303631d58a5cdcdd9", ""},
	{44, "9d35300a992c9d7595fdbb0300e12ce88b6067af042db803cbcefee744d66702", ""},
	{45, "b249d8ee82ec877504f577d34bf4992ba1fe21db55fe524630450dd4b8630a5b", ""},
	{46, "46a861d19e8f3610e9e293e30737faaa86806503a9d81665914390420709ea31", ""},
	{47, "cc722f669a2d0f5ffcbb5d52f584823286fee7df61403fb33fadf799c63fc166", ""},
	{48, "d8fec5ddf8906fb877da520623f9ebaca06ee45aaf1dbe67c86c6ed5587b1c63", ""},
	{49, "de0c4c4dc6e52f0b772b4b21f23d7d6267cb2e87bc7c095d332a64755c24f79b", ""},
	{50, "7faf530abd6d88da65ed03c61701e4cfa6f32a832aba41237d9c1d4042e32d5a", ""},
	{51, "", "prog \"p51\": block b11 unreachable from entry"},
	{52, "259d1d59c64a6ea46c0077037f4826b4c19dd522b00d40c36baa52ac33713bff", ""},
	{53, "d31ee0afd1d1adf93c8fe8946ec77ee3b17e63f996afef5012ad454494dc3b20", ""},
	{54, "", "prog \"p54\": block b3 unreachable from entry"},
	{55, "e1f7a3d94f13c0885bed1312027ca3c46f9706977e5b7b825e0146ce3c5238e4", ""},
	{56, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{57, "", "prog \"p57\": block b9 unreachable from entry"},
	{58, "e06e2631163c2f2f2c26c975235c40d34915b8acdbf921119fc2046a268e742c", ""},
	{59, "01e5e911b86e2e89f8818e97ab2ef0133cebe8ca031f2ea6a4e5db1ec13e8415", ""},
	{60, "", "prog \"p60\": ir: unknown entry block \"b1\""},
	{61, "acb32eb67a2e4d070003b5dc8cff1869e2bd213b42f72d4aea8f6fb040652670", ""},
	{62, "e3f382d340e007c9b8693ab06fd8cec41841015bec2405be42719497dfb9e1ac", ""},
	{63, "b23af50440e4434c36fe453c73437942f56eb5b5cf61e32e4999875b5498fe62", ""},
	{64, "", "prog \"p64\": block b11 unreachable from entry"},
	{65, "490a5865dedab7a2aad0c2b5c943ebb187875e1c5900b441354eeb94068aad59", ""},
	{66, "", "prog \"p66\": block b30 unreachable from entry"},
	{67, "98c21fef026a29d5e08d3a0a891923b9a56d5b6044b26f7b6f5039fa41c91ad8", ""},
	{68, "", "prog \"p68\": block b14 unreachable from entry"},
	{69, "29c1121218cf72325b5d448c40dbac5ffabfdb6e47df35b756f4ba2dc6213a28", ""},
	{70, "63c2af7a6387fdfc2b40cb63809707e6bf7f29aac8b1fd42f7be302484a899e6", ""},
	{71, "c5b181842b6a55bc0a9afa35aac93b2f8503c59d82fd06d2cea93dd573b0cd5b", ""},
	{72, "", "prog \"p72\": block b10 unreachable from entry"},
	{73, "747722051098b29dcbfd3ce5f51baa176edcb9784c5984ba687a67fbcbeb6827", ""},
	{74, "", "prog \"p74\": block b54 unreachable from entry"},
	{75, "e8b0ecee1f825e70eefad6e6db82690744e2ae28b7aeea9c4bc5f587edf46766", ""},
	{76, "2bb249c920650db77f1b070e7d002dc03b77584d521f42e2acd92c7e5ace4c01", ""},
	{77, "44ad974dedefc5118b31a3e7f0e607c079a1d94ee91891d16f55c1991d7a08f7", ""},
	{78, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{79, "99aa78e3d90165e90009b8d4851d8b4661b31f71942ea3492667baa10c7c58fd", ""},
	{80, "074cba5a7c6013e69bb600aca58e5bb10337ea942086469b64e46d254ff9aa87", ""},
	{81, "", "prog \"p81\": block b7 unreachable from entry"},
	{82, "b50f0c93e803f0e5c7aec9bb70fa276ff6dc4665fe6c5352fd1c45baafd4ea7b", ""},
	{83, "dab41f38104d637f6961c787e5fc8082c7981a574e6ed53f86d6bd122b778198", ""},
	{84, "c6e4d74d646e072c6e2d0792f7e38c2864b49c14b3b437a41d1f0af3bb76b346", ""},
	{85, "2ee3d74a64db2d38992d26a61142edc8f7cd9192470a79b797806753edab1b73", ""},
	{86, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{87, "55abfabb3af512abb2688209423eb1e2f789d00bd7c44695ebb8734689889ef2", ""},
	{88, "746b5b1d9bc66300d206c84d4ae9b0005866fbffbfee8443866088e98b110add", ""},
	{89, "", "prog \"p89\": block b3 unreachable from entry"},
	{90, "7e82e1044912527ef1a3f73fa43a0f91b236db15d94553144706e90e5a775b05", ""},
	{91, "d8bbbdcb00bd6fec0c541659177ed4aa81e37da07c514145aed39de47a3ecc9b", ""},
	{92, "67d2c8a72060f56f3078ad184497c56be6d65f346a19c39c7ecf0513efedcddc", ""},
	{93, "f27e55798d3ac6bf64f41ef1143fa3fd205017952486e84dca326929af6c001b", ""},
	{94, "", "prog \"p94\": ir: unknown entry block \"b1\""},
	{95, "112fedb1186122806c2e3be097a3475a3be26d7fadb1e179739d8e08ad6e480d", ""},
	{96, "e74841856b334ecf357c2c35d859f18cc69bc4e36dfbfa9417534b069b018ab7", ""},
	{97, "5e34f7a87af9ec66c8340a834160545534dd356cd6c559a55accf86c32a911e8", ""},
	{98, "c02ab06ed4f37ee533ca7880b750427fcf26f85733f5f9d35e614e096995bfc6", ""},
	{99, "3347182ce4900002f564bce282edfad29ba786b1aa310d7c6ac2ca74b87d57e0", ""},
	{100, "7885c6287d9f5e9f3536292c6810a59465bdf9ce4f14b3b20a025ddfbf13a7b6", ""},
	{101, "bb792d4edb76ffc77451c1c6af1328b791ce8c8ca5cb08de70032c433a442c9a", ""},
	{102, "ed02dd1267f664eb92777653fe5c64a25d94ef877e0e4d4de8e1b9ca1491eb35", ""},
	{103, "", "prog \"p103\": block b17 unreachable from entry"},
	{104, "", "prog \"p104\": block b21 unreachable from entry"},
	{105, "d0f079fa67258bbfddea360ade291528264f80e30e8b93a22dd99d099233a77e", ""},
	{106, "66478a05364cba29b15e9a432bd20579d800c4674a6b041743f61034b1b76fe9", ""},
	{107, "4c5476de656e966de6753bb6e3965487d2f3c20959c186814e6d2323509b9745", ""},
	{108, "dd4780e9f6134a70e62ad3d4445830960bea73530e49072e7412eb1ff9ea57ff", ""},
	{109, "", "prog \"p109\": block b5 unreachable from entry"},
	{110, "1874a7d38c8e4ed4660dc8fd06da592ddea042328516cd7ec9c4475c92911d0b", ""},
	{111, "e707cb93b749339075795c358df6a23917de2f14bacb32c9369c3871e78eef36", ""},
	{112, "fa7e7cbfeaa910c14509f7fc041af0a0031c28ee15c247e9945443da3d3f9c8e", ""},
	{113, "66b302b3e112ad425851b3e61b52284ea9d00cdadb4cc21025e79e1f818ba262", ""},
	{114, "", "prog \"p114\": block b20 unreachable from entry"},
	{115, "638e11f9cd1a8f7cc9cc55d0595d7ffac25ad2cbfc82190a328a38f98962353a", ""},
	{116, "f4448a671adfdbfcea33786736f10b533fc113eedfc50688cdd8ef6ace29b890", ""},
	{117, "1c7f0f1829dc87e7b84f0c9edc4eec4e8c192a47a2507eb3571c4740bf86f549", ""},
	{118, "d8618d2167c3acfa51057e92468186b12897062c6272adf107ea62ec06c28470", ""},
	{119, "f9c735e31fb7a4e721a93cdbf6d09ad69e243b59d221aa23dc714bb01e599f63", ""},
	{120, "127540d0c9e864fd418fa547fec5972c035db2c60d9cf39264b464f327081d5f", ""},
	{121, "f18bb1b1801948b261cd416af47ef50700707a9325a42c176be654c6f37b73c3", ""},
	{122, "606a910a9228cb33e30a447877ae8de8f3e85eb19faf7fa3e5c32764ec6ff611", ""},
	{123, "", "prog \"p123\": block b45 unreachable from entry"},
	{124, "cf8b4936ce9d4baf559d613323e3a481a505011904729496b6c324f3d9a640eb", ""},
	{125, "", "prog \"p125\": block b6 unreachable from entry"},
	{126, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{127, "78d7dc8326a72f7e85fe845acffb096e1d606eb96ebf3edea8019174012f5155", ""},
	{128, "d2c4993e41fcad5a682395c8bea17efb27c93c2f8b7038cef49da2d5c3c0c320", ""},
	{129, "ef9792942ff629d27194393eb36e4ec0f5e5477e1ff048f31830941a3eb62b4d", ""},
	{130, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{131, "798ceb61a8ad19d5c40e8f7ef813c146d23ef2f4f2857dd99ba594b12b736068", ""},
	{132, "", "prog \"p132\": block b9 unreachable from entry"},
	{133, "0006b63231a53544869487b71352f8998db4effc55265803733572503b7e99c5", ""},
	{134, "4324de7ee7f9d5036120c62f4a6c3c5386b536a142839f9892ea951c30eb116a", ""},
	{135, "7b4e974285e41c810a2bc030ba75b073e46ad54247e12450d6e1f8ec398115d3", ""},
	{136, "cc0a12d56b7ed222c162acc1be69a4849f0cbcf05c430a9a1d60105af4f705e5", ""},
	{137, "", "prog \"p137\": ir: unknown entry block \"b1\""},
	{138, "", "prog \"p138\": ir: unknown entry block \"b1\""},
	{139, "1f0fd79a9c04f05e9b4869b4c2186700610d6f96d6586319b355256499cae4fb", ""},
	{140, "68478634aca60e84ec18516e31296d62acef637f1826292d77b39d9507e44839", ""},
	{141, "6030d9dffe6cf30cc4a8b603850da8bf99a6cc590f9663db3ced86e6c9d21bf4", ""},
	{142, "1942c6e9110d5598528cf39a8b259953c41ee033d0021ce4474f267999fff7db", ""},
	{143, "4fd6730038bb327c50acedb7bf0fc90b3daa7b47229a5176ff86e6c201226d82", ""},
	{144, "01c8c7ef072d5d8617a01da915af6d9f1ed00fd06c74e5b0514602691d29d3f6", ""},
	{145, "cdf8511ba2f5205497f770351284ed9b2caaadd9df686a11800e00d1864140b9", ""},
	{146, "9291453a46c2b14e394ab59fe44e0f43edc4b60f6e05c8306587b1c9a790eb00", ""},
	{147, "cbdf7a9f05191d518a077657c815b62a60a50a2012db817db505c8def526762e", ""},
	{148, "c78109e8e708c831c7f7572e9f3764ebc630c8c3a7e8174d16c9047fdec4e7db", ""},
	{149, "49b92762fd7cf6d99b95a8f2e01fdaa5ce92a9b1ecfb8efb499c3345e8aced07", ""},
	{150, "58854b3302cafe88144cf26b7aa16049b6a1a5625f68b139f93a3bd45f80f869", ""},
	{151, "16e7b9668ff92254573db649cc59d1b2a622a233a4c8e2af095458d3ec23694a", ""},
	{152, "", "prog \"p152\": block b6 unreachable from entry"},
	{153, "d105527b386856061f90de31eb95a163ed21a4d9ec420419f812c80d8ee05ab1", ""},
	{154, "60d534c0705b2a08712427cb9a3b1b93c51843ed9bbf09e70f1d88964bb66377", ""},
	{155, "30c293fe18f54afe97789754a13fe2ab1115a585e9de25e2f1c8aa7a74e34142", ""},
	{156, "2b3c290d735e32ce267bf2a23bcafce9555142c7861bec134353db0da5e15e09", ""},
	{157, "b16ba1276c3460e315cfe7c45526846806735f7096d12d9a4deb127663695319", ""},
	{158, "5a3b9f2e5e573584ca9c74d2183d76d733f39bc1fe6babf6fbe9456ce9651a58", ""},
	{159, "716f924524a9b827e9d0bee32984e1f0b2b20f812ef6d9091782cfb47e1ea89f", ""},
	{160, "8f8cc94e86effac18918f9e33712f151b3b081329a78867ac05c1f48cb3c17cd", ""},
	{161, "909566bbdbbd1dc5c20ac3fe72b8cbe730c00922c3efe98e2f5a326243a9e97e", ""},
	{162, "", "prog \"p162\": ir: unknown entry block \"b1\""},
	{163, "63a6e5bc1ebbd90c8fb11eed6ea6f1b82923942db8a6ee9cfc0a0693659f55e0", ""},
	{164, "", "prog \"p164\": block b6 unreachable from entry"},
	{165, "", "prog \"p165\": block b36 unreachable from entry"},
	{166, "ce1a3c35918594a0773bc507181d7662b87862a744a2e90c89f3463fc0a37bfc", ""},
	{167, "13c6e77930633b36ba42810d8d3a98c1dc2ff0b658a162510062d8d2215b6197", ""},
	{168, "4d730ce5acfac3a55338296847b74568251d83bbf65724a5eaf8188c4a11227e", ""},
	{169, "", "prog \"p169\": block b12 unreachable from entry"},
	{170, "2732706f35cbc4af17829be657dffd8b0ee9b06b16fcb561a02d1c6ee371207b", ""},
	{171, "da557c0eb6dca90f654c74ec4275ea74c5bd542931d4384ac973cc55ae7f74c9", ""},
	{172, "", "prog \"p172\": block b11 unreachable from entry"},
	{173, "063bf6fe3dee0dcfe5040afd14893b93670f1ba3feb7435d582bd362573e00e5", ""},
	{174, "0337081d8ddd1cd73cc2465549f6aa5ac011cf9021c44c8c0d13710f996a4cee", ""},
	{175, "de968cd11c4d34b744a7b1ccf50bf5ff7fd77129cea78876ba162bdfcb9b366e", ""},
	{176, "2c6b5e624922e58a44339cd62489298c9c2fe40b21387ec3cd019944c7d3ca67", ""},
	{177, "db99250b797d1d0fa2565148fd0ae61610b8af26d723cd4af6098724fd3d9269", ""},
	{178, "56afd6f99fa34dd5497a80e48cb8f61a921919eb8aa96a50ae4e463fc9017cd7", ""},
	{179, "a8099f315fa5486ca3648f0261777f5945a15f14ee4380ac86f30b3157928956", ""},
	{180, "685f8d374a402083e5a78988c0db1ca6d69d6ff0887b9341b05c1e83b302711f", ""},
	{181, "a9f4db9b082fafb41e6e122b2bbec40701ac0b7777b3d571979a2da78e71b405", ""},
	{182, "463188e681257ad2ca94fe588ca7274bfc76f841f9c977ecdfe2bfe6bd0d76ad", ""},
	{183, "484da20bd9360defbb0a94606d468494437980e10553ff93ce545baa261a9ae6", ""},
	{184, "ccc080fff10095e9a4dfd67422238ca96a1de2cc71e14ad50509db7125cd0034", ""},
	{185, "", "prog \"p185\": block b5 unreachable from entry"},
	{186, "389d422af91c4a5d0a3da51765fb6c0ea5715fb31685b7dd44bc0e1ef44a2cf1", ""},
	{187, "1eaffc6822c40c2e4261a7deaddcf6d8e664b8f241a26e0fa555fda4eb23da8c", ""},
	{188, "b79cc19b400b51d86585c9ab950881261833d3ac88c43f033591a3185a4fedbb", ""},
	{189, "6c05eb369da557ceef9a2b06c4471b74519fe66ee815a39d827a16f64513e0b8", ""},
	{190, "6dd6b9db6d71a836dc89bf23bbb76ad72a688dbabee180f73daa22d1f0d70dd4", ""},
	{191, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{192, "", "prog \"p192\": block b17 unreachable from entry"},
	{193, "ef6687f3729f33600a201a13819873c113d5f1450d0070640e547795478dc4db", ""},
	{194, "88924d8bbab988755922234c99e2a68ccd40eac3c2e22885e8958ec862504e2e", ""},
	{195, "", "prog \"p195\": block b7 unreachable from entry"},
	{196, "9c91f077c43c80e6af2dcaf78c7e82eb5362de003a581513b08d92066005754f", ""},
	{197, "86deea04ee3aa895ec2a6f80a358c40107fcef17e5f34444bccad8735ea8f8d7", ""},
	{198, "1fa2b251acb3f3cb9121aa761e4b72659cf96e497beeb6369d08cacf6c1c4739", ""},
	{199, "ee0f45bc20a7ef2c6bc61a2e7537d033050f17dcb5fd535ee456bee32cb365d4", ""},
	{200, "", "prog \"p200\": block b3 unreachable from entry"},
	{201, "722255ae2e41e0739a28fc68f9c949521cb0cd52984d4ccfc9ce70e2d0625fd8", ""},
	{202, "e3ab5030859812b3295818c51dcd8b0dfd94379c78ede4abb6b32b53d4f149be", ""},
	{203, "", "prog \"p203\": ir: unknown entry block \"b1\""},
	{204, "b2b70c9adfcecf75410377f2273ad46454185606c4197e45ca1cdec4f5212f11", ""},
	{205, "8e360abe67f7aa8ed592d8a1926d5a6685a43a3ccae8238b3ba06cabb4d61698", ""},
	{206, "fbcc825d90dc932238d91461098757215bd60161d755fc1034d7f2b6d356230d", ""},
	{207, "7ba7b089bededed98fd892a205a16a35e13e92d1f11376d718f0c1dc84e44ae1", ""},
	{208, "613c616eef050b6e30f272f9d94fd131e59cf2166bbf94bdf3be2de9093a82a9", ""},
	{209, "b49b9e36d2531f129ce10871ab77eb7b790f9fa264bb9340068d9f24145356ba", ""},
	{210, "74e6b57f9d55c2e522cfcc240f3712d1933992bda2787b6678dcbd96a5be62ae", ""},
	{211, "", "prog \"p211\": block b21 unreachable from entry"},
	{212, "94db055367d407de055a87351b9d977d5b0c4d434da14951aaaee5a8059ebc6b", ""},
	{213, "", "prog \"p213\": block b26 unreachable from entry"},
	{214, "e0b3226ab54319a2af5ed67268666948dd07c76ce624eeff9df86ba5252ccd24", ""},
	{215, "7da3ad232b82a29365bbce9795edfaed99df74f733dca40a6e6194e5357103f8", ""},
	{216, "1965b074704ea7209b0a323290b56b5466f79d78896fd2882c9b55029d62a4ec", ""},
	{217, "a1252ca47ff2c2b7b60338aa2dee9752e78bae3d4577a195b6fa593fe57a6869", ""},
	{218, "9cf1488fba1c838b534857995c08bf2f6346e4b8225294ef549e61792218d5ce", ""},
	{219, "fafc36a8a64aa71cd7bac9f5cab4a366a4dd508ff101c120fc970d4868a67763", ""},
	{220, "7e07e60aeef72278f3c021db6d10eea2bb04356841eb5ac6191b64528a380362", ""},
	{221, "", "prog \"p221\": ir: unknown entry block \"b1\""},
	{222, "ab6bc72794dbb1c87b2f420181ef6837a6b1317d7999d11849536a9aacf6fcc6", ""},
	{223, "", "prog \"p223\": ir: unknown entry block \"b1\""},
	{224, "da8cfb9103a4086bdefcbcbf4e76218f15e76848fb4be20f58b63598e290c69d", ""},
	{225, "3df540db75b505cf23d1b21d2838478c2e13132a192d9f6398d924d8715c3843", ""},
	{226, "", "prog \"p226\": block b14 unreachable from entry"},
	{227, "de3fc33e893092644cdddc612bb1cbdf0ce201be525cdf6764119ec407ca69b4", ""},
	{228, "c8cb40e89d9a0875607d21f6349985bc0a1cca980baf307caec84c0bc8a173f8", ""},
	{229, "463373a403520a25137f3dcbc9334280a7d4bacd9a31b25192dda904c6179565", ""},
	{230, "bf4cd006993ff729dc053635c8ba9ae61b70ecff03adfddf3639257ad801045e", ""},
	{231, "40d66457b352bec0faaca6f2f45feac9bda5257f262eea5b2d3a4b0a6924e113", ""},
	{232, "728d9838613e78bb1e247e3f65945becf08aea910980a2031a184632f17bd6cd", ""},
	{233, "8ebea5ab7c26d9d949236ad8a26bfa9b18075b560c41e13dd905959adfd57fab", ""},
	{234, "95d5de2fc708ae380208d0e6de0fe52b333766c79ef0695491116b41bebb1867", ""},
	{235, "aea6807795fe778d152545f8a0cb205b5133666885635c06f347e42cd39e2748", ""},
	{236, "dac6ce5f89273f65d722b3eba3441241b2514bbabe74f5d19b2710b9070637f5", ""},
	{237, "eb37a1bd5efc417142f3c7f0f8f47fc133dc4566ad8ba6dce5883431e71cd594", ""},
	{238, "", "prog \"p238\": block b23 unreachable from entry"},
	{239, "cb081ecbe605e89b55460cc34508eeea0d873ac479dc1ad0785ac30fefd45e9a", ""},
	{240, "b705e7dfc4aec1895979990e04439298160691a1eaa4dbb937fb3782159c60c5", ""},
	{241, "ccc6311ca625976ace0e21f2fc1109544478ace377a0ed885cba87ced6836209", ""},
	{242, "5870b2c4c80c89f777669bb3e5f4335233a2b5fbe421e73b27a8c17c75c6ca52", ""},
	{243, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{244, "f115f701fd356cad24d808edd0c50042964584922cdb5fb167ca620481babdde", ""},
	{245, "", "prog \"p245\": block b14 unreachable from entry"},
	{246, "71659874d2fbb760e8c34523f83c0572b008f412ad1db2fad7fc09c0e991a826", ""},
	{247, "e06585c3ce6c8b4d85289936791dbe5332a09cbec2c87747eb4e8948f89a8794", ""},
	{248, "b26358d6fe8c5f571354b4e8b5b7d5f0ad6ea179f25b73cf3a3445f82c06298a", ""},
	{249, "800bc22fe92a97888623ad5bd7bf07d2623eb7f47d8dda8a11440b5c3bed704d", ""},
	{250, "fee5744e72f6d86c42cd1e2f5d1bb2f0fd3ed7f876362ab18afb9beec8b676a9", ""},
	{251, "", "prog \"p251\": block b17 unreachable from entry"},
	{252, "5e78edfbc9c2665c7e76ac8e67f06974bb8303f289714859fb81edd7271a53b7", ""},
	{253, "", "prog \"p253\": block b18 unreachable from entry"},
	{254, "", "prog \"p254\": block b8 unreachable from entry"},
	{255, "0e686c972dceef7c2db0a6ee155b7397bce25bc3b1061748c6c3f0b43b630072", ""},
	{256, "", "prog \"p256\": block b8 unreachable from entry"},
	{257, "fa38dcca34402716a2d7d9272c5d7a03c28b6f47acebd024e7c99e7f19a34bab", ""},
	{258, "4e3a68c53fe17f2cc7b08fb290b5983dfb6c6238d211e777f7016654f2975d1d", ""},
	{259, "e74ad18bf262a7ac3efd281ab62a7d2782ec55ad85c70ff1e094dca34f547830", ""},
	{260, "0bdf3b29f1c8b107e4d54c96f3a74b6a080ad2f85112a0805915c653313e2187", ""},
	{261, "", "prog \"p261\": block b5 unreachable from entry"},
	{262, "646ae921dde830da9f54f34a281cc496c2c652280f8f26ce9b09eaadc447f961", ""},
	{263, "784ef2061895539f9b0562d5452410bbeaa072eaa42049521286066cc395f5a8", ""},
	{264, "1df07445388d4464c331b6552f35a6ce478156d3481c07bb81a99775fd4caf4e", ""},
	{265, "ba30867e0a56112f09fe67d487176b0d4b947c1ebccee9f4f52dc90a32d0a022", ""},
	{266, "", "prog \"p266\": block b8 unreachable from entry"},
	{267, "", "prog \"p267\": block b10 unreachable from entry"},
	{268, "75d5bd501badcf96722b4f789a3aceea25f6d3f583bc9c0e5554011678f7e6b3", ""},
	{269, "", "prog \"p269\": block b11 unreachable from entry"},
	{270, "80c1020c4d9542b06fa5a3c707e4d0df1b2be97b0482eb11d6f256b8cb25df30", ""},
	{271, "", "prog \"p271\": block b24 unreachable from entry"},
	{272, "1fba626cd14e4175d7066d6dbdc7a150be934c8e174335bbd85dcc0718c7682d", ""},
	{273, "04c62d0665e314ad06f80c1d54083a03c9359e9b9af013cabca20a4f26dabcb9", ""},
	{274, "03587e1ffcb13f0764b6a6f2a3b985282867ad9bbc6331d1eb5f6f35390ebc06", ""},
	{275, "", "prog \"p275\": block b8 unreachable from entry"},
	{276, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{277, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{278, "c45a4b725c40cebdb4d1941da556a1089da2530eaf53a01ead3422b97afb4dc5", ""},
	{279, "8deae7158bddd2424c751284c0b88131380700fb9d307ee9b61d01abcbd3900f", ""},
	{280, "5ef811c9ff8b2f35491a97f4a4d2a98855edab2a762b75b73d7a72b678db1c72", ""},
	{281, "4c49dda3132c9ee7a4781a99db536026bfd275978aac0762ecdc0a2fe5ebc91c", ""},
	{282, "d11c60ac69335def7cda2d31b09ef619af03245ac96925aff5fbc7b7c87e9600", ""},
	{283, "4b72cfb2cbbb125873bd15e0e76faff48147734f95fe878ac429e1bc484f9f2f", ""},
	{284, "6160fb2c88ad35f648d1424b067e5e0cd3d27c5b716d8a96862a8d833a8586b4", ""},
	{285, "c7933084a3e12ba0d7687e1ff9ed354c0834b24021d940a24d0df2a4fc103223", ""},
	{286, "", "prog \"p286\": block b8 unreachable from entry"},
	{287, "159f4ec34d40129150fd836811c9b2ebdc26533d3fe956f322bc9d4ef5b72a0a", ""},
	{288, "9246a82b14d98d6c5adadcbc8a035f1a483421adf4f31779a07729ad2d65aae3", ""},
	{289, "46675c780d293738d15d554a93d75e88daaee58227aed935b3d7c9e98463cbe1", ""},
	{290, "909e6a0bae92a03e53e5461f0ef69b6e8ffbbcbd89d306b08ac4288fabb6456d", ""},
	{291, "fdae2e3963aa016ee75645ea8e29244a051863e447ed0e830a37cc4e608d88b0", ""},
	{292, "f1e2cf71078a345c8aa1cc4ec0cc90a357e95bb032a3cb794145f4dda50f32c5", ""},
	{293, "1391104a6b9ac4ee4e938f585ec90fc6501bc61fef73f725a706362f3dbab601", ""},
	{294, "a50c5f3033bdb772bc5f6215e4c1a38bf18f319fb7237a9208c0dea2d80975b2", ""},
	{295, "caaa5e803500344734b03df732b04098e23a1faed33ce36eeb0feb8c9bfaed0d", ""},
	{296, "447a4670f1069d8fb1370b592b595ccde61f63644240b23e60026abb48cca81a", ""},
	{297, "d69854f8d9cb7f567468cd6b0042e532a0cf3795c8adfb1ad8d1323037d65591", ""},
	{298, "5bfb9e7aeb5871190d8707e3be6d1201244a5ae7dae81fe1b9fb555c6221e70a", ""},
	{299, "b8fb770a2b1861da4928cef470d7d32bb07b939f79a94d892a8cab42c18e26e5", ""},
	{300, "", "prog \"p300\": block b3 unreachable from entry"},
}

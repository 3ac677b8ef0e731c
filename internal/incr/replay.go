package incr

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/rae"
)

// WarmResult is the outcome of a successful warm replay: a fully
// optimized graph byte-identical to what the cold global algorithm would
// produce, plus the statistics the engine reports for it.
type WarmResult struct {
	Graph         *ir.Graph
	Decomposed    int
	SplitEdges    int
	AMIterations  int
	Eliminated    int
	Flush         flush.Stats
	RegionsTotal  int
	RegionsReused int
}

// Replay attempts to optimize src by replaying the recorded run in man:
// init runs in full (it is cheap), the post-init graph is diffed against
// the manifest's region digests, and when at most one region differs the
// recorded AM rounds and the final flush are replayed on that region
// alone as boundary-pinned sub-problems, certified against the recording
// at every exported fact. The untouched regions' final content is
// stitched back from the manifest, so the warm path's cost is linear in
// the dirty region, not the graph. ok=false means the replay could not
// be certified — the caller falls back to the cold path, so a false here
// costs time, never correctness.
func Replay(src *ir.Graph, man *Manifest) (*WarmResult, bool) {
	if len(src.Temps()) > 0 {
		// τ-canonical naming is only bijective on temp-free sources.
		return nil, false
	}
	g := src.Clone()
	split := g.SplitCriticalEdges()
	decomposed := core.Initialize(g)

	// Structural certificate: the edit must not have changed the
	// post-init shape the recording is expressed in.
	if len(g.Blocks) != man.NBlocks || int(g.Entry) != man.Entry || int(g.Exit) != man.Exit ||
		len(man.Succs) != man.NBlocks {
		return nil, false
	}
	for i, b := range g.Blocks {
		if !eqInts(nodeInts(b.Succs), man.Succs[i]) {
			return nil, false
		}
	}
	rs := ir.Regionize(g, 0)
	if rs.Len() != len(man.Regions) || len(man.Sums) != rs.Len() {
		return nil, false
	}
	for i, region := range rs.Regions {
		if !eqInts(nodeInts(region), man.Regions[i]) {
			return nil, false
		}
	}
	if man.K < 1 || len(man.Rounds) != man.K || len(man.FlushRegions) != rs.Len() {
		return nil, false
	}

	sums := RegionSums(g, rs)
	dirty := -1
	for r := range sums {
		if sums[r] != man.Sums[r] {
			if dirty >= 0 {
				return nil, false // more than one dirty region: cold
			}
			dirty = r
		}
	}

	rp := &replayer{g: g, man: man, rs: rs, dirty: dirty}
	if !rp.prepare() {
		return nil, false
	}
	eliminated := 0
	var fst flush.Stats
	switch {
	case dirty >= 0 && rs.Len() == 1:
		// The whole graph is the dirty region: nothing is stitched and no
		// recorded boundary fact applies — flush simply runs live.
		var ok bool
		eliminated, ok = rp.replayRounds()
		if !ok {
			return nil, false
		}
		fst = flush.RunWith(g, nil)
	case dirty >= 0:
		var ok bool
		eliminated, ok = rp.replayRounds()
		if !ok {
			return nil, false
		}
		fst, ok = rp.flushReplay()
		if !ok {
			return nil, false
		}
		for r, rec := range man.FlushRegions {
			if r == dirty {
				continue
			}
			fst.DroppedInits += rec[0]
			fst.InsertedInits += rec[1]
			fst.Reconstructed += rec[2]
		}
		if !rp.stitchFinal() {
			return nil, false
		}
	default:
		eliminated = man.Eliminated
		fst = flush.Stats{
			DroppedInits:  man.FlushTotal[0],
			InsertedInits: man.FlushTotal[1],
			Reconstructed: man.FlushTotal[2],
		}
		if !rp.stitchFinal() {
			return nil, false
		}
	}
	reused := rs.Len()
	if dirty >= 0 {
		reused--
	}
	return &WarmResult{
		Graph:         g,
		Decomposed:    decomposed,
		SplitEdges:    split,
		AMIterations:  man.K,
		Eliminated:    eliminated,
		Flush:         fst,
		RegionsTotal:  rs.Len(),
		RegionsReused: reused,
	}, true
}

// replayer carries the per-attempt state of one warm replay.
type replayer struct {
	g     *ir.Graph
	man   *Manifest
	rs    *ir.RegionSet
	dirty int

	u  *ir.PatternSet
	px *analysis.PatternIndex

	// Pattern-ID translation between the manifest universe and the live
	// one, by decoded temp-canonical equality (-1 = unmapped).
	man2live []int
	live2man []int

	// Dirty-region geometry: member blocks ascending, block→sub-problem
	// index (-1 outside), and the external adjacency of each member.
	rblocks []int
	sub     []int
	extPred [][]int
	extSucc [][]int
}

func (rp *replayer) prepare() bool {
	man, g := rp.man, rp.g
	var s *analysis.Session // nil session: plain one-shot universe
	rp.u, rp.px, _ = s.Universe(g)
	mw, lw := len(man.Universe), rp.u.Len()

	for _, rec := range man.Rounds {
		if len(rec.Pos1) != mw || len(rec.Reg1) != mw || len(rec.Pos2) != mw ||
			len(rec.Changed) != rp.rs.Len() || len(rec.Removed) != rp.rs.Len() {
			return false
		}
	}

	tempByKey := tempKeyMap(g)
	rp.man2live = constInts(mw, -1)
	rp.live2man = constInts(lw, -1)
	for mid, rec := range man.Universe {
		p, ok := decodePattern(g, tempByKey, rec)
		if !ok {
			continue
		}
		if lid, ok := rp.u.ID(p); ok {
			rp.man2live[mid] = lid
			rp.live2man[lid] = mid
		}
	}

	if rp.dirty < 0 {
		return true
	}
	region := rp.rs.Regions[rp.dirty]
	rp.rblocks = nodeInts(region)
	rp.sub = constInts(len(g.Blocks), -1)
	for si, b := range rp.rblocks {
		rp.sub[b] = si
	}
	rp.extPred = make([][]int, len(rp.rblocks))
	rp.extSucc = make([][]int, len(rp.rblocks))
	for si, bi := range rp.rblocks {
		b := g.Blocks[bi]
		for _, p := range b.Preds {
			if rp.sub[p] < 0 {
				rp.extPred[si] = append(rp.extPred[si], int(p))
			}
		}
		for _, s := range b.Succs {
			if rp.sub[s] < 0 {
				rp.extSucc[si] = append(rp.extSucc[si], int(s))
			}
		}
	}
	return true
}

// replayRounds replays the K recorded AM rounds on the dirty region and
// returns the total number of eliminated occurrences (recorded outside +
// live inside), or ok=false on any certificate mismatch.
func (rp *replayer) replayRounds() (int, bool) {
	eliminated := 0
	for k := 0; k < rp.man.K; k++ {
		rec := &rp.man.Rounds[k]

		occ := rp.regionOcc()
		mpos := rp.mergedPositions(rec, occ)
		hoistChanged, ok := rp.hoistRound(rec, mpos, occ)
		if !ok {
			return 0, false
		}
		removed, ok := rp.elimRound(rec)
		if !ok {
			return 0, false
		}
		eliminated += removed

		// Round-count alignment: the live round must agree with the
		// recording on whether the global fixpoint loop continues.
		outsideChanged := false
		outsideRemoved := 0
		for r := range rec.Changed {
			if r == rp.dirty {
				continue
			}
			if rec.Changed[r] {
				outsideChanged = true
			}
			outsideRemoved += rec.Removed[r]
		}
		eliminated += outsideRemoved
		continues := hoistChanged || outsideChanged || removed > 0 || outsideRemoved > 0
		if (k < rp.man.K-1) != continues {
			return 0, false
		}
	}
	return eliminated, true
}

// regionOcc returns the pattern IDs of the instructions of every
// dirty-region block, indexed like rblocks, in one backing array.
func (rp *replayer) regionOcc() [][]int {
	n := 0
	for _, bi := range rp.rblocks {
		n += len(rp.g.Blocks[bi].Instrs)
	}
	flat := make([]int, 0, n)
	occ := make([][]int, len(rp.rblocks))
	for si, bi := range rp.rblocks {
		start := len(flat)
		flat = rp.px.BlockOccurrences(rp.g.Blocks[bi], flat)
		occ[si] = flat[start:]
	}
	return occ
}

// mergedPositions computes, for every live pattern ID, the global
// first-occurrence position this round exactly as the cold run would see
// it: the minimum of the recorded first position outside the dirty
// region (exact — the clean regions' content is the predecessor's) and
// the live first position inside the dirty region (occ). -1 means absent.
func (rp *replayer) mergedPositions(rec *RoundRec, occ [][]int) []int64 {
	lw := rp.u.Len()
	mpos := constSlice(lw, -1)
	// The region's canonical block list is not in graph order, so keep the
	// minimum position per pattern — cold occRank order is exactly the
	// numeric order of global first-occurrence positions.
	for si, bi := range rp.rblocks {
		for kk, id := range occ[si] {
			if id < 0 {
				continue
			}
			pos := int64(bi)<<20 | int64(kk)
			if mpos[id] < 0 || pos < mpos[id] {
				mpos[id] = pos
			}
		}
	}
	for lid := 0; lid < lw; lid++ {
		mid := rp.live2man[lid]
		if mid < 0 {
			continue
		}
		outside := int64(-1)
		if p1 := rec.Pos1[mid]; p1 >= 0 {
			if rec.Reg1[mid] != int64(rp.dirty) {
				outside = p1
			} else {
				outside = rec.Pos2[mid]
			}
		}
		if outside >= 0 && (mpos[lid] < 0 || outside < mpos[lid]) {
			mpos[lid] = outside
		}
	}
	return mpos
}

// hoistRound runs one aht round restricted to the dirty region with the
// recorded boundary facts injected, certifies the region's exported
// facts and insertion orders against the recording, and performs the
// insert/remove rewrite on the region's blocks. It reports whether any
// region block changed (the cold round's change signal restricted to the
// region). occ holds the region blocks' pattern IDs.
func (rp *replayer) hoistRound(rec *RoundRec, mpos []int64, occ [][]int) (bool, bool) {
	g, lw := rp.g, rp.u.Len()
	nr := len(rp.rblocks)

	// Per-block local predicates, as cold aht computes them.
	locH := make([]bitvec.Vec, nr)
	locB := make([]bitvec.Vec, nr)
	for si, bi := range rp.rblocks {
		locH[si], locB[si] = rp.px.BlockLocals(g.Blocks[bi], occ[si], nil)
	}

	// Sub-problem: region blocks plus one context node per block with
	// external successors, carrying the recorded meet of their
	// N-HOISTABLE facts. A context node has no upstream in the backward
	// orientation, so the solver's Boundary hook presets its fact and an
	// empty gen/kill transfer exports it unchanged.
	var ctxOf []int // sub index of block si's context node, -1 none
	ctxOf = constInts(nr, -1)
	ctxFact := []bitvec.Vec{}
	ctxHome := []int{} // context node -> owning sub block
	for si := range rp.rblocks {
		if len(rp.extSucc[si]) == 0 {
			continue
		}
		raw, ok := rec.XExt[rp.rblocks[si]]
		if !ok {
			return false, false
		}
		v, ok := rp.strictVec(raw, lw)
		if !ok {
			return false, false
		}
		ctxOf[si] = nr + len(ctxFact)
		ctxFact = append(ctxFact, v)
		ctxHome = append(ctxHome, si)
	}
	n := nr + len(ctxFact)
	gen := make([]bitvec.Vec, n)
	kill := make([]bitvec.Vec, n)
	empty := bitvec.New(lw)
	for si := 0; si < nr; si++ {
		gen[si], kill[si] = locH[si], locB[si]
	}
	for c := nr; c < n; c++ {
		gen[c], kill[c] = empty, empty
	}
	exit := int(g.Exit)
	succs := func(i int) []int {
		if i >= nr {
			return nil
		}
		var out []int
		for _, s := range g.Blocks[rp.rblocks[i]].Succs {
			if rp.sub[s] >= 0 {
				out = append(out, rp.sub[s])
			}
		}
		if ctxOf[i] >= 0 {
			out = append(out, ctxOf[i])
		}
		return out
	}
	preds := func(i int) []int {
		if i >= nr {
			return []int{ctxHome[i-nr]}
		}
		var out []int
		for _, p := range g.Blocks[rp.rblocks[i]].Preds {
			if rp.sub[p] >= 0 {
				out = append(out, rp.sub[p])
			}
		}
		return out
	}
	res := dataflow.Solve(dataflow.Problem{
		N: n, Bits: lw, Dir: dataflow.Backward, Meet: dataflow.All,
		Preds: preds, Succs: succs,
		Gen: gen, Kill: kill,
		Boundary: func(i int, in bitvec.Vec) {
			switch {
			case i >= nr:
				in.CopyFrom(ctxFact[i-nr])
			case rp.rblocks[i] == exit:
				in.ClearAll()
			}
		},
	})
	xh := res.In[:nr]  // X-HOISTABLE per region block
	nh := res.Out[:nr] // N-HOISTABLE per region block

	// Certify the region's exported hoisting facts.
	for si, bi := range rp.rblocks {
		if len(rp.extPred[si]) > 0 && !rp.certifyVec(nh[si], rec.NEntry[bi]) {
			return false, false
		}
		if len(rp.extSucc[si]) > 0 && !rp.certifyVec(xh[si], rec.XExit[bi]) {
			return false, false
		}
	}

	// Insertion points, with the external frontier taken from the
	// recording (lenient translation: an unmapped pattern cannot be set
	// in any live fact, and the frontier is only ever intersected with
	// live facts).
	full := bitvec.NewFull(lw)
	nIns := make([]bitvec.Vec, nr)
	xIns := make([]bitvec.Vec, nr)
	for si, bi := range rp.rblocks {
		ni := nh[si].Copy()
		if ir.NodeID(bi) != g.Entry {
			frontier := bitvec.New(lw)
			for _, p := range g.Blocks[bi].Preds {
				if rp.sub[p] >= 0 {
					frontier.OrAndNot(full, xh[rp.sub[p]])
				}
			}
			if len(rp.extPred[si]) > 0 {
				raw, ok := rec.FExt[bi]
				if !ok {
					return false, false
				}
				rp.lenientOr(frontier, raw)
			}
			ni.And(frontier)
		}
		nIns[si] = ni
		xi := xh[si].Copy()
		xi.And(locB[si])
		xIns[si] = xi
	}

	// A dirty branch block with external successors prepends its X-INSERT
	// sequence into clean blocks: both the set and the order must match
	// the recording exactly.
	for si, bi := range rp.rblocks {
		if len(rp.extSucc[si]) == 0 {
			continue
		}
		if _, branch := g.Blocks[bi].Cond(); !branch {
			continue
		}
		if !rp.certifyList(rec.InsX[bi], xIns[si], mpos) {
			return false, false
		}
	}
	// Clean blocks' insertion sets are pinned by the certified boundary
	// facts; their ORDER depends on global first-occurrence ranks, which
	// the edit could reorder — certify that the live merged positions
	// keep every recorded clean-block sequence strictly increasing.
	for biStr, list := range rec.InsN {
		if rp.sub[biStr] < 0 && !rp.certifyOrder(list, mpos) {
			return false, false
		}
	}
	for biStr, list := range rec.InsX {
		if rp.sub[biStr] < 0 && !rp.certifyOrder(list, mpos) {
			return false, false
		}
	}

	// Rewrite the region's blocks exactly as cold aht does.
	prepend := make([][]ir.Instr, nr)
	appendAtEnd := make([][]ir.Instr, nr)
	for si, bi := range rp.rblocks {
		if !xIns[si].Any() {
			continue
		}
		instrs, ok := rp.materialize(xIns[si], mpos)
		if !ok {
			return false, false
		}
		if _, branch := g.Blocks[bi].Cond(); branch {
			for _, s := range g.Blocks[bi].Succs {
				ss := rp.sub[s]
				if ss < 0 {
					continue // clean successor: content arrives via stitching
				}
				if len(g.Block(s).Preds) != 1 {
					return false, false
				}
				prepend[ss] = append(prepend[ss], instrs...)
			}
		} else {
			appendAtEnd[si] = append(appendAtEnd[si], instrs...)
		}
	}
	for si, bi := range rp.rblocks {
		// Prepends arriving from a clean branch predecessor (recorded as
		// ordered Pin sequences). Edge splitting guarantees a block fed by
		// a branch has that branch as its only predecessor, so Pin and an
		// internal branch prepend never mix.
		for _, p := range rp.extPred[si] {
			if list, ok := rec.Pin[itoa(bi)+","+itoa(p)]; ok {
				instrs, ok := rp.materializeList(list)
				if !ok {
					return false, false
				}
				prepend[si] = append(instrs, prepend[si]...)
			}
		}
		if nIns[si].Any() {
			instrs, ok := rp.materialize(nIns[si], mpos)
			if !ok {
				return false, false
			}
			prepend[si] = append(prepend[si], instrs...)
		}
	}

	changed := false
	for si, bi := range rp.rblocks {
		b := g.Blocks[bi]
		if len(prepend[si]) == 0 && len(appendAtEnd[si]) == 0 && !locH[si].Any() {
			continue
		}
		drop := analysis.Candidates(occ[si], locH[si], false, nil)
		next := make([]ir.Instr, 0, len(prepend[si])+len(b.Instrs)+len(appendAtEnd[si]))
		next = append(next, prepend[si]...)
		for kk, in := range b.Instrs {
			if !drop.Get(kk) {
				next = append(next, in)
			}
		}
		next = append(next, appendAtEnd[si]...)
		if !sameInstrs(next, b.Instrs) {
			changed = true
		}
		b.Instrs = normalizeInstrs(next)
	}
	return changed, true
}

// elimRound runs one rae round restricted to the dirty region with the
// recorded entry availability injected, certifies the region's exported
// availability, and performs the removal walk. Returns the number of
// occurrences removed inside the region.
func (rp *replayer) elimRound(rec *RoundRec) (int, bool) {
	g, lw := rp.g, rp.u.Len()
	nr := len(rp.rblocks)

	occ := rp.regionOcc()
	gen := make([]bitvec.Vec, 0, nr)
	kill := make([]bitvec.Vec, 0, nr)
	for si, bi := range rp.rblocks {
		gv, kv := bitvec.New(lw), bitvec.New(lw)
		rp.px.BlockTransfer(g.Blocks[bi], occ[si], gv, kv)
		gen = append(gen, gv)
		kill = append(kill, kv)
	}

	ctxOf := constInts(nr, -1)
	ctxFact := []bitvec.Vec{}
	ctxHome := []int{}
	for si := range rp.rblocks {
		if len(rp.extPred[si]) == 0 {
			continue
		}
		raw, ok := rec.AExt[rp.rblocks[si]]
		if !ok {
			return 0, false
		}
		v, ok := rp.strictVec(raw, lw)
		if !ok {
			return 0, false
		}
		ctxOf[si] = nr + len(ctxFact)
		ctxFact = append(ctxFact, v)
		ctxHome = append(ctxHome, si)
	}
	n := nr + len(ctxFact)
	empty := bitvec.New(lw)
	for c := nr; c < n; c++ {
		gen = append(gen, empty)
		kill = append(kill, empty)
	}
	entry := int(g.Entry)
	preds := func(i int) []int {
		if i >= nr {
			return nil
		}
		var out []int
		for _, p := range g.Blocks[rp.rblocks[i]].Preds {
			if rp.sub[p] >= 0 {
				out = append(out, rp.sub[p])
			}
		}
		if ctxOf[i] >= 0 {
			out = append(out, ctxOf[i])
		}
		return out
	}
	succs := func(i int) []int {
		if i >= nr {
			return []int{ctxHome[i-nr]}
		}
		var out []int
		for _, s := range g.Blocks[rp.rblocks[i]].Succs {
			if rp.sub[s] >= 0 {
				out = append(out, rp.sub[s])
			}
		}
		return out
	}
	res := dataflow.Solve(dataflow.Problem{
		N: n, Bits: lw, Dir: dataflow.Forward, Meet: dataflow.All,
		Preds: preds, Succs: succs,
		Gen: gen, Kill: kill,
		Boundary: func(i int, in bitvec.Vec) {
			switch {
			case i >= nr:
				in.CopyFrom(ctxFact[i-nr])
			case rp.rblocks[i] == entry:
				in.ClearAll()
			}
		},
	})

	for si, bi := range rp.rblocks {
		if len(rp.extSucc[si]) > 0 && !rp.certifyVec(res.Out[si], rec.AOut[bi]) {
			return 0, false
		}
	}

	removed := 0
	avail := bitvec.New(lw)
	for si, bi := range rp.rblocks {
		b := g.Blocks[bi]
		avail.CopyFrom(res.In[si])
		removed += rae.EliminateInBlock(b, occ[si], rp.px, avail)
		b.Instrs = normalizeInstrs(b.Instrs)
	}
	return removed, true
}

// stitchFinal copies the recorded final (post-flush) content into every
// clean block, renaming the manifest's temporaries into the live graph's
// by their bound expression. The dirty region's blocks keep their
// replayed content (with no dirty region, every block is stitched). The
// parsed final graph is memoized on the manifest, so repeated warm runs
// off the same recording pay the parse once.
func (rp *replayer) stitchFinal() bool {
	postG := rp.man.finalGraph()
	if postG == nil || len(postG.Blocks) != len(rp.g.Blocks) {
		return false
	}
	liveTemps := tempKeyMap(rp.g)
	for i, b := range rp.g.Blocks {
		if rp.dirty >= 0 && rp.rs.Of[i] == rp.dirty {
			continue
		}
		pb := postG.Blocks[i]
		if !eqInts(nodeInts(pb.Succs), nodeInts(b.Succs)) {
			return false
		}
		instrs := make([]ir.Instr, len(pb.Instrs))
		for kk := range pb.Instrs {
			in, ok := remapInstr(postG, liveTemps, pb.Instrs[kk])
			if !ok {
				return false
			}
			instrs[kk] = in
		}
		b.Instrs = instrs
	}
	return true
}

// remapInstr rewrites one recorded instruction into the live graph's
// namespace: source variables map to themselves, the recording's
// temporaries to the live temporary bound to the same expression.
func remapInstr(from *ir.Graph, liveTemps map[string]ir.Var, in ir.Instr) (ir.Instr, bool) {
	ok := true
	mapVar := func(v ir.Var) ir.Var {
		if !from.IsTemp(v) {
			return v
		}
		e, has := from.TempExpr(v)
		if !has {
			ok = false
			return v
		}
		lv, has := liveTemps[e.Key()]
		if !has {
			ok = false
			return v
		}
		return lv
	}
	mapOperand := func(o ir.Operand) ir.Operand {
		if o.IsConst {
			return o
		}
		return ir.VarOp(mapVar(o.Var))
	}
	mapTerm := func(t ir.Term) ir.Term {
		t.Args[0] = mapOperand(t.Args[0])
		if !t.Trivial() {
			t.Args[1] = mapOperand(t.Args[1])
		}
		return t
	}
	out := in
	switch in.Kind {
	case ir.KindAssign:
		out.LHS = mapVar(in.LHS)
		out.RHS = mapTerm(in.RHS)
	case ir.KindOut:
		out.Args = append([]ir.Operand(nil), in.Args...)
		for i := range out.Args {
			out.Args[i] = mapOperand(out.Args[i])
		}
	case ir.KindCond:
		out.CondL = mapTerm(in.CondL)
		out.CondR = mapTerm(in.CondR)
	}
	return out, ok
}

// --- translation and certification helpers ------------------------------

// strictVec translates a recorded manifest-space bitset into live space.
// Every set bit must map: these vectors are injected as live facts, and a
// pattern absent from the live universe cannot carry a live fact.
func (rp *replayer) strictVec(raw []byte, lw int) (bitvec.Vec, bool) {
	v := bitvec.New(lw)
	for _, mid := range byteBits(raw) {
		if mid >= len(rp.man2live) || rp.man2live[mid] < 0 {
			return bitvec.Vec{}, false
		}
		v.Set(rp.man2live[mid])
	}
	return v, true
}

// lenientOr folds a recorded frontier contribution into dst, dropping
// bits of patterns absent from the live universe (such patterns cannot
// be set in any live fact the frontier is intersected with).
func (rp *replayer) lenientOr(dst bitvec.Vec, raw []byte) {
	for _, mid := range byteBits(raw) {
		if mid < len(rp.man2live) && rp.man2live[mid] >= 0 {
			dst.Set(rp.man2live[mid])
		}
	}
}

// certifyVec checks a live fact vector against its recorded counterpart:
// every live bit must map to a set recorded bit and vice versa.
func (rp *replayer) certifyVec(live bitvec.Vec, raw []byte) bool {
	okAll := true
	live.ForEach(func(lid int) {
		mid := rp.live2man[lid]
		if mid < 0 || !byteBit(raw, mid) {
			okAll = false
		}
	})
	if !okAll {
		return false
	}
	for _, mid := range byteBits(raw) {
		if mid >= len(rp.man2live) {
			return false
		}
		lid := rp.man2live[mid]
		if lid < 0 || !live.Get(lid) {
			return false
		}
	}
	return true
}

// certifyList checks that a live insertion set equals the recorded
// ordered list and that the live merged positions reproduce its order.
func (rp *replayer) certifyList(list []int, live bitvec.Vec, mpos []int64) bool {
	if len(list) != live.PopCount() {
		return false
	}
	prev := int64(-1)
	for _, mid := range list {
		if mid < 0 || mid >= len(rp.man2live) {
			return false
		}
		lid := rp.man2live[mid]
		if lid < 0 || !live.Get(lid) {
			return false
		}
		p := mpos[lid]
		if p < 0 || p <= prev {
			return false
		}
		prev = p
	}
	return true
}

// certifyOrder checks that the live merged positions keep a recorded
// clean-block insertion sequence strictly increasing (set membership is
// already pinned by the certified boundary facts).
func (rp *replayer) certifyOrder(list []int, mpos []int64) bool {
	prev := int64(-1)
	for _, mid := range list {
		if mid < 0 || mid >= len(rp.man2live) {
			return false
		}
		lid := rp.man2live[mid]
		if lid < 0 {
			return false
		}
		p := mpos[lid]
		if p < 0 || p <= prev {
			return false
		}
		prev = p
	}
	return true
}

// materialize renders a live insertion set as instructions ordered by
// merged first-occurrence position — the cold run's occRank order.
func (rp *replayer) materialize(v bitvec.Vec, mpos []int64) ([]ir.Instr, bool) {
	ids := v.Bits()
	for _, id := range ids {
		if mpos[id] < 0 {
			return nil, false
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && mpos[ids[j]] < mpos[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := make([]ir.Instr, 0, len(ids))
	for _, id := range ids {
		p := rp.u.Pattern(id)
		out = append(out, ir.NewAssign(p.LHS, p.RHS))
	}
	return out, true
}

// materializeList renders a recorded ordered pattern-ID sequence (a Pin)
// as live instructions, in the recorded order.
func (rp *replayer) materializeList(list []int) ([]ir.Instr, bool) {
	out := make([]ir.Instr, 0, len(list))
	for _, mid := range list {
		if mid < 0 || mid >= len(rp.man2live) || rp.man2live[mid] < 0 {
			return nil, false
		}
		p := rp.u.Pattern(rp.man2live[mid])
		out = append(out, ir.NewAssign(p.LHS, p.RHS))
	}
	return out, true
}

// --- small utilities ----------------------------------------------------

func sameInstrs(a, b []ir.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// normalizeInstrs is ir.Graph.Normalize restricted to one block: skips
// are stripped and an emptied block keeps a single skip.
func normalizeInstrs(instrs []ir.Instr) []ir.Instr {
	kept := instrs[:0]
	for _, in := range instrs {
		if in.Kind != ir.KindSkip {
			kept = append(kept, in)
		}
	}
	if len(kept) == 0 {
		kept = append(kept, ir.Skip())
	}
	return kept
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func constInts(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

package incr

import (
	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/am"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
)

// Recorder observes one cold run of the default pipeline through
// am.Hooks and assembles the Manifest a later warm run replays against.
// Recording is strictly read-only: the observed run's result is
// byte-identical to an unobserved one. If anything looks inconsistent
// (a hook sequence the recorder does not expect, a universe that grew
// mid-fixpoint), the recorder invalidates itself and Manifest returns
// nil — the run simply is not recorded.
type Recorder struct {
	fp, cfg string
	m       *Manifest
	rs      *ir.RegionSet
	u       *ir.PatternSet
	extSucc [][]int
	extPred [][]int
	cur     *RoundRec
	ok      bool
	done    bool // AM fixpoint observed to completion
	fdone   bool // flush observed to completion
}

// NewRecorder returns a recorder for a run of the given source
// fingerprint under the given engine config key.
func NewRecorder(fp, cfg string) *Recorder {
	return &Recorder{fp: fp, cfg: cfg, ok: true}
}

// Hooks returns the am.Hooks that drive the recording; pass them to
// core.PhasesObserved.
func (r *Recorder) Hooks() *am.Hooks {
	return &am.Hooks{
		Begin:      r.begin,
		BeginRound: r.beginRound,
		HoistInfo:  r.hoistInfo,
		HoistDone:  r.hoistDone,
		ElimSolve:  r.elimSolve,
		ElimDone:   r.elimDone,
		End:        r.end,
	}
}

// FlushObserver returns the flush.Observer that records the flush
// phase's boundary facts and final program; pass it to
// core.PhasesObserved alongside Hooks.
func (r *Recorder) FlushObserver() *flush.Observer {
	return &flush.Observer{
		Analyzed: r.flushAnalyzed,
		Done:     r.flushDone,
	}
}

// Manifest returns the completed manifest, or nil when the run failed,
// was never observed to finish, or recording was invalidated.
func (r *Recorder) Manifest() *Manifest {
	if !r.ok || !r.done || !r.fdone {
		return nil
	}
	return r.m
}

func (r *Recorder) begin(g *ir.Graph, s *analysis.Session) {
	if r.m != nil { // a second fixpoint under one recorder: not a shape we record
		r.ok = false
		return
	}
	r.rs = s.Regions(g)
	r.u, _, _ = s.Universe(g)
	n := len(g.Blocks)
	m := &Manifest{
		Version: Version,
		Fp:      r.fp,
		Cfg:     r.cfg,
		NBlocks: n,
		Entry:   int(g.Entry),
		Exit:    int(g.Exit),
		Succs:   make([][]int, n),
		Regions: make([][]int, r.rs.Len()),
		Sums:    RegionSums(g, r.rs),
	}
	for i, b := range g.Blocks {
		m.Succs[i] = nodeInts(b.Succs)
	}
	for i, region := range r.rs.Regions {
		m.Regions[i] = nodeInts(region)
	}
	enc := varEncoder{g: g}
	m.Universe = make([]PatternRec, r.u.Len())
	for id, p := range r.u.Patterns() {
		m.Universe[id] = enc.pattern(p)
	}
	r.extSucc = make([][]int, n)
	r.extPred = make([][]int, n)
	for i, b := range g.Blocks {
		for _, sid := range b.Succs {
			if r.rs.Of[sid] != r.rs.Of[i] {
				r.extSucc[i] = append(r.extSucc[i], int(sid))
			}
		}
		for _, pid := range b.Preds {
			if r.rs.Of[pid] != r.rs.Of[i] {
				r.extPred[i] = append(r.extPred[i], int(pid))
			}
		}
	}
	r.m = m
}

func (r *Recorder) beginRound(int) {
	if r.m == nil {
		r.ok = false
		return
	}
	r.cur = &RoundRec{
		XExt: map[int][]byte{}, NEntry: map[int][]byte{}, XExit: map[int][]byte{},
		FExt: map[int][]byte{}, Pin: map[string][]int{},
		InsN: map[int][]int{}, InsX: map[int][]int{},
		AExt: map[int][]byte{}, AOut: map[int][]byte{},
	}
}

func (r *Recorder) hoistInfo(g *ir.Graph, info *aht.Info) {
	if !r.ok || r.cur == nil || info.U != r.u || r.u.Len() != len(r.m.Universe) {
		r.ok = false
		return
	}
	w := r.u.Len()
	rec := func(v bitvec.Vec) []byte { return vecBytes(v.Bits(), w) }
	scratch := bitvec.New(w)
	for i := range g.Blocks {
		if len(r.extSucc[i]) > 0 {
			scratch.SetAll()
			for _, m := range r.extSucc[i] {
				scratch.And(info.NHoistable[m])
			}
			r.cur.XExt[i] = vecBytes(scratch.Bits(), w)
			r.cur.XExit[i] = rec(info.XHoistable[i])
		}
		if len(r.extPred[i]) > 0 {
			r.cur.NEntry[i] = rec(info.NHoistable[i])
			scratch.ClearAll()
			full := bitvec.NewFull(w)
			for _, p := range r.extPred[i] {
				scratch.OrAndNot(full, info.XHoistable[p])
			}
			r.cur.FExt[i] = vecBytes(scratch.Bits(), w)
			for _, p := range r.extPred[i] {
				pb := g.Blocks[p]
				if _, branch := pb.Cond(); branch && info.XInsert[p].Any() {
					key := itoa(i) + "," + itoa(p)
					r.cur.Pin[key] = info.OrderedIDs(info.XInsert[p])
				}
			}
		}
	}
	for i := range g.Blocks {
		if info.NInsert[i].Any() {
			r.cur.InsN[i] = info.OrderedIDs(info.NInsert[i])
		}
		if info.XInsert[i].Any() {
			r.cur.InsX[i] = info.OrderedIDs(info.XInsert[i])
		}
	}
	// First-occurrence positions at round start: the global first
	// position, its region, and the first position outside that region.
	pos1 := constSlice(w, -1)
	reg1 := constSlice(w, -1)
	pos2 := constSlice(w, -1)
	for i := range g.Blocks {
		region := int64(r.rs.Of[i])
		for k, id := range info.Occ.Block(i) {
			if id < 0 {
				continue
			}
			pos := int64(i)<<20 | int64(k)
			switch {
			case pos1[id] < 0:
				pos1[id], reg1[id] = pos, region
			case reg1[id] != region && pos2[id] < 0:
				pos2[id] = pos
			}
		}
	}
	r.cur.Pos1, r.cur.Reg1, r.cur.Pos2 = pos1, reg1, pos2
}

func (r *Recorder) hoistDone(_ *ir.Graph, changed []bool) {
	if !r.ok || r.cur == nil {
		return
	}
	byRegion := make([]bool, r.rs.Len())
	for i, c := range changed {
		if c {
			byRegion[r.rs.Of[i]] = true
		}
	}
	r.cur.Changed = byRegion
}

func (r *Recorder) elimSolve(g *ir.Graph, _ *analysis.PatternIndex, _, availOut []bitvec.Vec) {
	if !r.ok || r.cur == nil {
		return
	}
	w := r.u.Len()
	scratch := bitvec.New(w)
	for i := range g.Blocks {
		if len(r.extPred[i]) > 0 {
			scratch.SetAll()
			for _, p := range r.extPred[i] {
				scratch.And(availOut[p])
			}
			r.cur.AExt[i] = vecBytes(scratch.Bits(), w)
		}
		if len(r.extSucc[i]) > 0 {
			r.cur.AOut[i] = vecBytes(availOut[i].Bits(), w)
		}
	}
}

func (r *Recorder) elimDone(_ *ir.Graph, removedByBlock []int) {
	if !r.ok || r.cur == nil {
		return
	}
	byRegion := make([]int, r.rs.Len())
	for i, c := range removedByBlock {
		byRegion[r.rs.Of[i]] += c
	}
	r.cur.Removed = byRegion
	if r.cur.Changed == nil {
		r.ok = false
		return
	}
	r.m.Rounds = append(r.m.Rounds, *r.cur)
	r.cur = nil
}

func (r *Recorder) end(g *ir.Graph, st am.Stats) {
	if !r.ok || r.m == nil {
		r.ok = false
		return
	}
	r.m.K = st.Iterations
	r.m.Eliminated = st.Eliminated
	if len(r.m.Rounds) != r.m.K || r.u.Len() != len(r.m.Universe) {
		r.ok = false
		return
	}
	r.done = true
}

// flushAnalyzed records the flush analyses' boundary facts: what every
// region imports from and exports to the rest of the graph through the
// delayability and usability solves, in temp-canonical bit space.
func (r *Recorder) flushAnalyzed(g *ir.Graph, info *flush.Info) {
	if !r.ok || r.m == nil || !r.done {
		r.ok = false
		return
	}
	w := len(info.Temps)
	r.m.Temps = make([]string, w)
	for t, h := range info.Temps {
		e, ok := g.TempExpr(h)
		if !ok {
			r.ok = false
			return
		}
		r.m.Temps[t] = e.Key()
	}
	prog := info.Prog
	first := func(i int) int { return prog.BlockStart(ir.NodeID(i)) }
	last := func(i int) int { return first(i) + len(g.Blocks[i].Instrs) - 1 }
	r.m.DExt = map[int][]byte{}
	r.m.DOut = map[int][]byte{}
	r.m.NDEnt = map[int][]byte{}
	r.m.UExt = map[int][]byte{}
	r.m.UEnt = map[int][]byte{}
	scratch := bitvec.New(w)
	for i := range g.Blocks {
		if len(r.extPred[i]) > 0 {
			scratch.SetAll()
			for _, p := range r.extPred[i] {
				scratch.And(info.XDelayable[last(p)])
			}
			r.m.DExt[i] = vecBytes(scratch.Bits(), w)
			r.m.NDEnt[i] = vecBytes(info.NDelayable[first(i)].Bits(), w)
			r.m.UEnt[i] = vecBytes(info.NUsable[first(i)].Bits(), w)
		}
		if len(r.extSucc[i]) > 0 {
			r.m.DOut[i] = vecBytes(info.XDelayable[last(i)].Bits(), w)
			scratch.ClearAll()
			for _, m := range r.extSucc[i] {
				scratch.Or(info.NUsable[first(m)])
			}
			r.m.UExt[i] = vecBytes(scratch.Bits(), w)
		}
	}
}

// flushDone records the per-region flush statistics and the final
// program — the run's result, which stitching copies clean regions from.
func (r *Recorder) flushDone(g *ir.Graph, total flush.Stats, perBlock []flush.Stats) {
	if !r.ok || r.m == nil || !r.done || r.m.Temps == nil || len(perBlock) != len(r.rs.Of) {
		r.ok = false
		return
	}
	fr := make([][3]int, r.rs.Len())
	for i, st := range perBlock {
		reg := r.rs.Of[i]
		fr[reg][0] += st.DroppedInits
		fr[reg][1] += st.InsertedInits
		fr[reg][2] += st.Reconstructed
	}
	r.m.FlushRegions = fr
	r.m.FlushTotal = [3]int{total.DroppedInits, total.InsertedInits, total.Reconstructed}
	// printer output round-trips through parse with an identical Encode
	// (the same guarantee the engine's persistent tier relies on).
	r.m.Final = printer.String(g)
	r.m.seedFinal(g.Clone())
	r.fdone = true
}

func nodeInts(ids []ir.NodeID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

func constSlice(n int, v int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		buf[p] = '-'
	}
	return string(buf[p:])
}

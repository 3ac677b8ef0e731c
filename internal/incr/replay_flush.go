package incr

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/flush"
)

// flushReplay replays the final flush phase (§4.4, Table 3) on the dirty
// region alone, against the boundary facts the recorder captured from the
// cold run. The delayability and usability analyses are gen/kill bit-vector
// frameworks, so their meet-over-paths solution at any region instruction
// is determined by the region's own instructions plus the facts arriving on
// the region's boundary edges — and the clean regions' content is by
// construction identical to the recording, so the recorded boundary facts
// are exact. The region's own exported facts are certified against the
// recording; any mismatch refuses the replay and the caller falls back to
// the cold path.
//
// The temp universes of the recording and the live run must agree as sets
// of bound expressions (a bijection by expression key); an edit that adds
// or removes a whole expression falls back to cold. Returns the flush
// statistics attributable to the dirty region's blocks — the cold values
// for the clean regions come from the manifest.
func (rp *replayer) flushReplay() (flush.Stats, bool) {
	g, man := rp.g, rp.man
	tx := analysis.NewTempIndex(g, nil)
	bits := len(tx.Temps)
	if bits != len(man.Temps) {
		return flush.Stats{}, false
	}
	if bits == 0 {
		// Nothing bound to a temporary: cold flush is the identity.
		return flush.Stats{}, true
	}
	t2man := make([]int, bits)
	man2t := constInts(bits, -1)
	manIdx := make(map[string]int, bits)
	for mt, k := range man.Temps {
		manIdx[k] = mt
	}
	for t, e := range tx.Exprs {
		mt, ok := manIdx[e.Key()]
		if !ok || man2t[mt] >= 0 {
			return flush.Stats{}, false
		}
		t2man[t] = mt
		man2t[mt] = t
	}
	// tvec translates a recorded temp-space bitset into the live ordering;
	// certify checks a live fact vector against its recorded counterpart.
	tvec := func(raw []byte) (bitvec.Vec, bool) {
		v := bitvec.New(bits)
		for _, mt := range byteBits(raw) {
			if mt >= bits {
				return bitvec.Vec{}, false
			}
			v.Set(man2t[mt])
		}
		return v, true
	}
	certify := func(live bitvec.Vec, raw []byte) bool {
		okAll := true
		live.ForEach(func(t int) {
			if !byteBit(raw, t2man[t]) {
				okAll = false
			}
		})
		if !okAll {
			return false
		}
		for _, mt := range byteBits(raw) {
			if mt >= bits || !live.Get(man2t[mt]) {
				return false
			}
		}
		return true
	}

	// Region instruction indexing: the sub-problem is instruction-level,
	// over the dirty region's post-AM content.
	nr := len(rp.rblocks)
	offs := make([]int, nr)
	ni := 0
	for si, bi := range rp.rblocks {
		offs[si] = ni
		ni += len(g.Blocks[bi].Instrs)
	}
	last := func(si int) int { return offs[si] + len(g.Blocks[rp.rblocks[si]].Instrs) - 1 }
	owner := make([]int, ni)
	for si, bi := range rp.rblocks {
		for kk := range g.Blocks[bi].Instrs {
			owner[offs[si]+kk] = si
		}
	}

	// Local predicates (Table 3) from the same temp index cold flush
	// uses, and the delayability kill USED ∨ BLOCKED.
	isInst := make([]bitvec.Vec, ni)
	used := make([]bitvec.Vec, ni)
	stop := make([]bitvec.Vec, ni)
	for si, bi := range rp.rblocks {
		b := g.Blocks[bi]
		for kk := range b.Instrs {
			i := offs[si] + kk
			isInst[i], used[i], stop[i] = bitvec.New(bits), bitvec.New(bits), bitvec.New(bits)
			tx.Locals(&b.Instrs[kk], isInst[i], used[i], stop[i])
			stop[i].Or(used[i])
		}
	}

	// Delayability: forward, all-paths. Context nodes inject the recorded
	// meet of the external predecessors' exit facts at each boundary-entry
	// block.
	dctxOf := constInts(nr, -1)
	var dFact []bitvec.Vec
	var dHome []int
	for si, bi := range rp.rblocks {
		if len(rp.extPred[si]) == 0 {
			continue
		}
		raw, ok := man.DExt[bi]
		if !ok {
			return flush.Stats{}, false
		}
		v, ok := tvec(raw)
		if !ok {
			return flush.Stats{}, false
		}
		dctxOf[si] = ni + len(dFact)
		dFact = append(dFact, v)
		dHome = append(dHome, si)
	}
	nD := ni + len(dFact)
	emptyV := bitvec.New(bits)
	genD := make([]bitvec.Vec, nD)
	killD := make([]bitvec.Vec, nD)
	for i := 0; i < ni; i++ {
		genD[i], killD[i] = isInst[i], stop[i]
	}
	for c := ni; c < nD; c++ {
		genD[c], killD[c] = emptyV, emptyV
	}
	entrySub := -1
	if s := rp.sub[int(g.Entry)]; s >= 0 {
		entrySub = offs[s]
	}
	delay := dataflow.Solve(dataflow.Problem{
		N: nD, Bits: bits, Dir: dataflow.Forward, Meet: dataflow.All,
		Preds: func(i int) []int {
			if i >= ni {
				return nil
			}
			si := owner[i]
			if i > offs[si] {
				return []int{i - 1}
			}
			var out []int
			for _, p := range g.Blocks[rp.rblocks[si]].Preds {
				if ps := rp.sub[p]; ps >= 0 {
					out = append(out, last(ps))
				}
			}
			if dctxOf[si] >= 0 {
				out = append(out, dctxOf[si])
			}
			return out
		},
		Succs: func(i int) []int {
			if i >= ni {
				return []int{offs[dHome[i-ni]]}
			}
			si := owner[i]
			if i < last(si) {
				return []int{i + 1}
			}
			var out []int
			for _, s := range g.Blocks[rp.rblocks[si]].Succs {
				if ss := rp.sub[s]; ss >= 0 {
					out = append(out, offs[ss])
				}
			}
			return out
		},
		Gen: genD, Kill: killD,
		Boundary: func(i int, in bitvec.Vec) {
			switch {
			case i >= ni:
				in.CopyFrom(dFact[i-ni])
			case i == entrySub:
				in.ClearAll()
			}
		},
	})
	ndelay, xdelay := delay.In, delay.Out
	for si, bi := range rp.rblocks {
		if len(rp.extSucc[si]) == 0 {
			continue
		}
		raw, ok := man.DOut[bi]
		if !ok || !certify(xdelay[last(si)], raw) {
			return flush.Stats{}, false
		}
	}

	// Usability: backward, some-path. Context nodes inject the recorded
	// join of the external successors' entry facts at each boundary-exit
	// block.
	uctxOf := constInts(nr, -1)
	var uFact []bitvec.Vec
	var uHome []int
	for si, bi := range rp.rblocks {
		if len(rp.extSucc[si]) == 0 {
			continue
		}
		raw, ok := man.UExt[bi]
		if !ok {
			return flush.Stats{}, false
		}
		v, ok := tvec(raw)
		if !ok {
			return flush.Stats{}, false
		}
		uctxOf[si] = ni + len(uFact)
		uFact = append(uFact, v)
		uHome = append(uHome, si)
	}
	nU := ni + len(uFact)
	genU := make([]bitvec.Vec, nU)
	killU := make([]bitvec.Vec, nU)
	for i := 0; i < ni; i++ {
		genU[i], killU[i] = used[i], isInst[i]
	}
	for c := ni; c < nU; c++ {
		genU[c], killU[c] = emptyV, emptyV
	}
	use := dataflow.Solve(dataflow.Problem{
		N: nU, Bits: bits, Dir: dataflow.Backward, Meet: dataflow.Any,
		Preds: func(i int) []int {
			if i >= ni {
				return []int{last(uHome[i-ni])}
			}
			si := owner[i]
			if i > offs[si] {
				return []int{i - 1}
			}
			var out []int
			for _, p := range g.Blocks[rp.rblocks[si]].Preds {
				if ps := rp.sub[p]; ps >= 0 {
					out = append(out, last(ps))
				}
			}
			return out
		},
		Succs: func(i int) []int {
			if i >= ni {
				return nil
			}
			si := owner[i]
			if i < last(si) {
				return []int{i + 1}
			}
			var out []int
			for _, s := range g.Blocks[rp.rblocks[si]].Succs {
				if ss := rp.sub[s]; ss >= 0 {
					out = append(out, offs[ss])
				}
			}
			if uctxOf[si] >= 0 {
				out = append(out, uctxOf[si])
			}
			return out
		},
		Gen: genU, Kill: killU,
		Boundary: func(i int, in bitvec.Vec) {
			if i >= ni {
				in.CopyFrom(uFact[i-ni])
			}
		},
	})
	xusable, nusable := use.In, use.Out
	for si, bi := range rp.rblocks {
		if len(rp.extPred[si]) == 0 {
			continue
		}
		raw, ok := man.UEnt[bi]
		if !ok || !certify(nusable[offs[si]], raw) {
			return flush.Stats{}, false
		}
	}

	// Latestness (no further fixpoint). The N-DELAYABLE facts of external
	// successor blocks come from the recording.
	nLatest := make([]bitvec.Vec, ni)
	xLatest := make([]bitvec.Vec, ni)
	scratch := bitvec.New(bits)
	for i := 0; i < ni; i++ {
		nl := ndelay[i].Copy()
		nl.And(stop[i])
		nLatest[i] = nl

		xl := xdelay[i].Copy()
		si := owner[i]
		if i < last(si) {
			scratch.CopyFrom(ndelay[i+1])
			scratch.Not()
			xl.And(scratch)
		} else {
			b := g.Blocks[rp.rblocks[si]]
			if len(b.Succs) == 0 {
				// Program exit: an initialization delayed past the last
				// instruction is dead.
				xl.ClearAll()
			} else {
				scratch.SetAll()
				for _, s := range b.Succs {
					if ss := rp.sub[s]; ss >= 0 {
						scratch.And(ndelay[offs[ss]])
					} else {
						raw, ok := man.NDEnt[int(s)]
						if !ok {
							return flush.Stats{}, false
						}
						v, ok := tvec(raw)
						if !ok {
							return flush.Stats{}, false
						}
						scratch.And(v)
					}
				}
				scratch.Not()
				xl.And(scratch)
			}
		}
		xLatest[i] = xl
	}

	// Rewrite the region's blocks through cold flush's own rewrite.
	facts := flush.Facts{
		Temps: tx.Temps, Exprs: tx.Exprs,
		IsInst: isInst, Used: used, XUsable: xusable, NLatest: nLatest, XLatest: xLatest,
	}
	var st flush.Stats
	for si, bi := range rp.rblocks {
		b := g.Blocks[bi]
		next, ok := facts.RewriteBlock(b, offs[si], &st)
		if !ok {
			// Cold flush panics here (edge splitting forbids it); a
			// replay refuses and lets the cold path decide.
			return flush.Stats{}, false
		}
		b.Instrs = normalizeInstrs(next)
	}
	return st, true
}

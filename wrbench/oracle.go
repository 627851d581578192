package main

// The set-up checks, run in every set-up outside the timed window: the
// paper's Table 1 minimum memories, and the exact-oracle checks. The
// exhaustive solver of internal/exact only reaches tiny instances (the
// game is hard), so the oracle checks cover graphs of at most 12 nodes
// and assert only what the paper proves or what the method has to
// satisfy:
//
//   - DWT equals the exact optimum (Theorem 3.5) and is never above
//     layer-by-layer;
//   - ktree and memstate are at least the exact cost, and equal it once
//     the budget holds the whole tree (they enumerate subtree-contiguous
//     orders only, so they are not optimal at every budget);
//   - MVM and anytime costs are at least the exact cost, and anytime is
//     at most its baseline seed.

import (
	"context"
	"fmt"
	"math/rand"

	"wrbpg/internal/anytime"
	"wrbpg/internal/baseline"
	"wrbpg/internal/cdag"
	"wrbpg/internal/dwt"
	"wrbpg/internal/exact"
	"wrbpg/internal/guard"
	"wrbpg/internal/ktree"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/memstate"
	"wrbpg/internal/mvm"
	"wrbpg/internal/solve"
	"wrbpg/internal/wcfg"
)

var noLimits guard.Limits

// setupChecks runs every set-up check.
func setupChecks(seed int64) error {
	if err := checkTable1(); err != nil {
		return err
	}
	return runOracle(seed)
}

// table1 is the paper's Table 1: the minimum memory, in words, of
// DWT(256,8) and of the MVM(96,120) tiling under both weight presets.
var table1 = []struct {
	family  string
	n, d, m int
	weights string
	words   int64
}{
	{solve.FamilyDWT, 256, 8, 0, "equal", 10},
	{solve.FamilyDWT, 256, 8, 0, "da", 18},
	{solve.FamilyMVM, 120, 0, 96, "equal", 99},
	{solve.FamilyMVM, 120, 0, 96, "da", 126},
}

// checkTable1 runs memdesign.SearchMonotoneSession on each Table 1
// instance, with the bounds computed here, and checks its answer
// against the table and against the definition: the cost meets the
// lower bound there and not one word below.
func checkTable1() error {
	ctx := context.Background()
	word := int64(wcfg.DefaultWordBits)
	for _, t := range table1 {
		s, err := newShape(t.family, t.n, t.d, t.m, 0, 0, t.weights)
		if err != nil {
			return err
		}
		sess, err := solve.NewSession(s.inst)
		if err != nil {
			return err
		}
		label := s.inst.Label()
		mm, err := memdesign.SearchMonotoneSession(ctx, noLimits, sess, s.lb, s.exist, total(s.g), word)
		if err != nil {
			return fmt.Errorf("%s minimum memory: %w", label, err)
		}
		if mm != t.words*word {
			return fmt.Errorf("%s: minimum memory %d bits, Table 1 gives %d words", label, mm, t.words)
		}
		if c, err := sess.CostCtx(ctx, noLimits, mm); err != nil || c != s.lb {
			return fmt.Errorf("%s: cost %d (%v) at minimum memory %d, lower bound %d", label, c, err, mm, s.lb)
		}
		if below := mm - word; below >= s.exist {
			if c, err := sess.CostCtx(ctx, noLimits, below); err != nil || c == s.lb {
				return fmt.Errorf("%s: cost %d (%v) one word below minimum memory %d, lower bound %d", label, c, err, mm, s.lb)
			}
		}
	}
	return nil
}

func total(g *graph) int64 {
	var t int64
	for _, w := range g.w {
		t += w
	}
	return t
}

// oracleMaxNodes is the largest instance handed to the exact solver.
const oracleMaxNodes = 12

func exactCost(g *cdag.Graph, b int64) (int64, error) {
	if g.Len() > oracleMaxNodes {
		return 0, fmt.Errorf("oracle instance has %d nodes, more than %d", g.Len(), oracleMaxNodes)
	}
	r, err := exact.Solve(g, b)
	if err != nil {
		return 0, fmt.Errorf("exact at %d: %w", b, err)
	}
	return r.Cost, nil
}

// runOracle checks the DP families and the anytime tier against the
// exact solver on small seeded instances.
func runOracle(seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ctx := context.Background()

	// DWT(4,1) with seeded input weights (inputs only, which keeps the
	// Lemma 3.2 weight order), at every word-aligned budget.
	for _, cfg := range []wcfg.Config{wcfg.Equal(16), wcfg.DoubleAccumulator(16)} {
		g, err := dwt.Build(4, 1, dwt.ConfigWeights(cfg))
		if err != nil {
			return err
		}
		for _, v := range g.Layers[0] {
			g.G.SetWeight(v, 8*int64(1+rng.Intn(3)))
		}
		se, err := dwt.NewSession(g)
		if err != nil {
			return err
		}
		cg := copyGraph(g.G)
		for b := cg.existenceBound(); b <= total(cg); b += 8 {
			c, err := se.CostCtx(ctx, noLimits, b)
			if err != nil {
				return err
			}
			ex, err := exactCost(g.G, b)
			if err != nil {
				return err
			}
			if c != ex {
				return fmt.Errorf("oracle: DWT(4,1) cost %d at %d, exact optimum %d (Theorem 3.5)", c, b, ex)
			}
			lbl, err := baseline.Cost(g.G, g.Layers, b)
			if err != nil {
				return err
			}
			if c > lbl {
				return fmt.Errorf("oracle: DWT(4,1) cost %d at %d above layer-by-layer %d", c, b, lbl)
			}
		}
	}

	// Random 8-node k-trees: ktree and memstate against exact. One size
	// keeps the exact search's time and memory alike across seeds.
	for i := 0; i < 2; i++ {
		tr, err := ktree.Random(rng, 3, 3, 40)
		if err != nil {
			return err
		}
		if tr.G.Len() != 8 {
			i--
			continue
		}
		ks, err := memstate.NewKScheduler(tr.G)
		if err != nil {
			return err
		}
		root := tr.G.Sinks()[0]
		cg := copyGraph(tr.G)
		full := total(cg)
		for _, b := range []int64{cg.existenceBound(), full} {
			ex, err := exactCost(tr.G, b)
			if err != nil {
				return err
			}
			kc := ktree.NewScheduler(tr).MinCost(b)
			// PlainCost leaves out the root's final store.
			mc := ks.PlainCost(root, b) + cg.w[root]
			if kc < ex || mc < ex {
				return fmt.Errorf("oracle: k-tree of %d nodes at %d: ktree %d, memstate %d below exact %d", len(cg.w), b, kc, mc, ex)
			}
			if b == full && (kc != ex || mc != ex) {
				return fmt.Errorf("oracle: k-tree of %d nodes at full budget %d: ktree %d, memstate %d, exact %d", len(cg.w), b, kc, mc, ex)
			}
		}
	}

	// MVM(2,2): the tiling cost is at least exact wherever a tile fits.
	for _, cfg := range []wcfg.Config{wcfg.Equal(16), wcfg.DoubleAccumulator(16)} {
		g, err := mvm.Build(2, 2, cfg)
		if err != nil {
			return err
		}
		for _, b := range []int64{g.TilingMinBudget(), g.TilingMinBudget() + 16} {
			c := g.MinCost(b)
			ex, err := exactCost(g.G, b)
			if err != nil {
				return err
			}
			if c < ex {
				return fmt.Errorf("oracle: MVM(2,2) tiling cost %d at %d below exact %d", c, b, ex)
			}
		}
	}

	// Random 9-node general DAGs: anytime against exact and its seed.
	for i := 0; i < 2; i++ {
		g := cdag.Random(rng.Int63(), 9)
		b := copyGraph(g).existenceBound() * 11 / 10
		ex, err := exactCost(g, b)
		if err != nil {
			return err
		}
		res, err := anytime.Search(ctx, g, b, noLimits, anytime.Options{})
		if err != nil {
			return fmt.Errorf("oracle: anytime: %w", err)
		}
		if res.Cost < ex || res.Cost > res.SeedCost {
			return fmt.Errorf("oracle: anytime cost %d at %d outside [exact %d, seed %d]", res.Cost, b, ex, res.SeedCost)
		}
	}
	return nil
}

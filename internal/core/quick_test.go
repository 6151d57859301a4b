package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Property: for arbitrary random instances the full pipeline emits a
// valid leaf-only placement whose congestion lies between the certified
// lower bound and 7× it, and every per-edge load respects the Lemma 4.5
// bound 4·L_nib(e) + τ_max.
func TestQuickPipelineInvariants(t *testing.T) {
	f := func(seed int64, objPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := tree.Random(rng, 5+rng.Intn(30), 5, 0.4, 8)
		w := workload.Uniform(rng, tr, 1+int(objPick)%5, workload.DefaultGen)
		res, err := Solve(tr, w, DefaultOptions())
		if err != nil {
			return false
		}
		if !res.Final.LeafOnly(tr) {
			return false
		}
		if err := res.Final.Validate(tr, w); err != nil {
			return false
		}
		if res.Report.Congestion.Less(res.NibbleReport().Congestion) {
			return false
		}
		if res.LowerBound().Num > 0 && res.ApproxRatio() > 7.0+1e-9 {
			return false
		}
		var tauMax int64
		if res.MappingTrace != nil {
			tauMax = res.MappingTrace.TauMax
		}
		for e := range res.Report.EdgeLoad {
			if res.Report.EdgeLoad[e] > 4*res.NibbleReport().EdgeLoad[e]+tauMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(221))}); err != nil {
		t.Error(err)
	}
}

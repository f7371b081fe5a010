package core

import (
	"fmt"
	"testing"

	"repro/internal/nn"
	"repro/internal/topk"
)

// scoreRangeSerial is the single-goroutine reference scan the stripe walk is
// checked against. It walks the range in global feature order with one
// per-pair Scorer (fp32) or QuantScorer (int8) and offers every feature to
// its channel's queue. A global walk visits each channel's features in
// ascending slot order, so evaluating the skip decision whenever a channel
// enters a new segment reproduces the stripe walk's segment-entry decision
// points (and queue states) exactly; the returned pruneStats record every
// decision.
func (ds *DeepStore) scoreRangeSerial(net *nn.Network, st *dbState, qfv []float32, start, end int64, k int) ([]topk.Entry, pruneStats) {
	if st.vectors == nil {
		return nil, pruneStats{}
	}
	layout := st.meta.Layout
	tier := ds.pruneTier(st)
	qt := ds.quantFor(st)
	shards := make([]*topk.Queue, layout.Geom.Channels)
	for i := range shards {
		shards[i] = topk.New(k)
	}
	scorer := net.Scorer()
	var qq nn.QuantQuery
	var qsc *nn.QuantScorer
	if qt != nil {
		qq = nn.PrepareQuantQuery(qfv)
		qsc = net.Quantize().Scorer()
	}
	score := func(i int64) float32 {
		if qsc != nil {
			return qsc.Score(qq, qt.vecs[i])
		}
		return scorer.Score(qfv, st.vectors[i])
	}
	var total pruneStats
	var bnd *nn.BoundScorer
	type chState struct {
		seg  int64
		skip bool
	}
	var state []chState
	if tier != nil {
		bnd = net.BoundScorer()
		state = make([]chState, layout.Geom.Channels)
		for i := range state {
			state[i].seg = -1
		}
	}
	stride := int64(layout.Geom.Channels)
	for i := start; i < end; i++ {
		ch := layout.FeatureChannel(i)
		if tier != nil {
			seg := (i / stride) / tier.stripeFeatures
			if seg != state[ch].seg {
				state[ch].seg = seg
				state[ch].skip = skipStripe(bnd, tier, qfv, shards[ch], ch, seg, &total)
			}
			if state[ch].skip {
				total.featuresSkipped++
				continue
			}
		}
		shards[ch].Offer(topk.Entry{
			FeatureID: i,
			Score:     score(i),
			ObjectID:  uint64(layout.Geom.Linear(layout.FeatureAddr(i))),
		})
	}
	return topk.Merge(k, shards...).Results(), total
}

// walkOne runs the stripe walk for a single query.
func (ds *DeepStore) walkOne(net *nn.Network, st *dbState, qfv []float32, start, end int64, k int) ([]topk.Entry, pruneStats) {
	w := []walkQuery{{qfv: qfv, k: k}}
	ds.walk(net, st, w, start, end)
	return w[0].top, w[0].stats
}

// TestWalkMatchesSerialOracle: on the small clustered device, the stripe
// walk returns the serial oracle's top-K and skip accounting bit for bit —
// fp32 and int8, dense and pruned, single-query and shared (Q=5, every
// member checked against its own oracle scan), over full, odd and
// mid-stripe ranges.
func TestWalkMatchesSerialOracle(t *testing.T) {
	const features = 131
	net := pruneTestNet()
	vectors := clusteredVectors(features, 31)
	qfvs := [][]float32{vectors[0], vectors[70], vectors[130], vectors[33], vectors[0]}
	ranges := []struct {
		name       string
		start, end int64
	}{
		{"full", 0, features},
		{"start=1", 1, features},
		{"mid-stripe-span", 3, 61},
		{"odd-tail", 7, features - 1},
		{"single-feature", 5, 6},
	}
	for _, quant := range []bool{false, true} {
		for _, prune := range []bool{false, true} {
			opts := pruneTestOpts(prune)
			if quant {
				opts = quantTestOpts(quantTestMargin)
				opts.Prune = prune
			}
			ds, model, dbID := buildPruneEngine(t, opts, net, vectors)
			st, net := ds.dbs[dbID], ds.models[model]
			var skipped int64
			for _, r := range ranges {
				t.Run(fmt.Sprintf("quant=%v/prune=%v/%s", quant, prune, r.name), func(t *testing.T) {
					wq := make([]walkQuery, len(qfvs))
					for q := range wq {
						wq[q] = walkQuery{qfv: qfvs[q], k: pruneTestK + q%2}
					}
					ds.walk(net, st, wq, r.start, r.end)
					for q, qfv := range qfvs {
						wantTop, wantStats := ds.scoreRangeSerial(net, st, qfv, r.start, r.end, wq[q].k)
						gotTop, gotStats := ds.walkOne(net, st, qfv, r.start, r.end, wq[q].k)
						for _, c := range []struct {
							name  string
							top   []topk.Entry
							stats pruneStats
						}{{"Q=1", gotTop, gotStats}, {"Q=5", wq[q].top, wq[q].stats}} {
							label := fmt.Sprintf("%s query %d", c.name, q)
							assertSameTopK(t, label, c.top, wantTop)
							if c.stats != wantStats {
								t.Fatalf("%s: skip accounting %+v, oracle %+v", label, c.stats, wantStats)
							}
						}
						skipped += wantStats.featuresSkipped
					}
				})
			}
			if prune && skipped == 0 {
				t.Fatalf("quant=%v: the pruned oracle never skipped a feature", quant)
			}
		}
	}
}

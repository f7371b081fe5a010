package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/topk"
)

// walkQuery is one query of a stripe walk: its feature vector and scan-phase
// top-K in, its merged top-K and skip accounting out.
type walkQuery struct {
	qfv   []float32
	k     int
	top   []topk.Entry
	stats pruneStats
}

// queueCap sizes a top-K queue at min(k, offers): a queue never holds more
// entries than are offered to it, so the cap changes no result, while a huge
// requested K costs no memory. offers < 1 still yields a valid (empty)
// queue.
func queueCap(k int, offers int64) int {
	if offers < 1 {
		offers = 1
	}
	if int64(k) > offers {
		return int(offers)
	}
	return k
}

// walk computes real SCN scores over the materialized vectors — the
// functional map-reduce of §4.7.1 — for every query in wq at once, filling
// each query's top and stats. Declared (spec-only) databases leave them
// empty.
//
// The range is sharded per channel: feature i lives on channel i mod
// Channels (§4.4 striping), so each shard is exactly the stripe that
// channel's accelerator scans. A GOMAXPROCS-bounded worker pool pulls
// channels; a worker gathers its stripe's features into its pooled
// scanCtx, scores each gather against all Q queries in one batched call
// (the Q×B pair grid of nn's ScoreMulti) and offers the scores to one queue
// per (query, channel) in stripe order. topk.Merge then reduces each
// query's channel queues. Every query sees the same comparisons in the same
// order as its own single-query walk, batched scores are bit-identical to
// per-pair scores, and the merge's (score, featureID) total order does not
// depend on which worker finished first, so each query's top-K is
// bit-identical to a serial scan of its range, for any Q, batch size or
// worker count.
//
// With the pruning tier active, the walk proceeds segment by segment and
// decides per (query, segment) at segment entry whether that query skips
// the segment (skipStripe). A segment is gathered and scored once if any
// query still scans it, but queries that skipped it receive no offers.
// Every segment ends with a drain, so the next segment-entry decision sees
// every offer of that channel so far. Each query's queue therefore evolves
// exactly as its own pruned scan would, and its skip accounting matches too.
func (ds *DeepStore) walk(net *nn.Network, st *dbState, wq []walkQuery, start, end int64) {
	if st.vectors == nil {
		return
	}
	layout := st.meta.Layout
	channels := layout.Geom.Channels
	stride := int64(channels)
	tier := ds.pruneTier(st)
	qt := ds.quantFor(st)
	var qqs []nn.QuantQuery
	if qt != nil {
		qqs = make([]nn.QuantQuery, len(wq))
		for q := range wq {
			qqs[q] = nn.PrepareQuantQuery(wq[q].qfv)
		}
	}
	// A single-query walk keeps today's 64-row GEMM shape; shared sweeps
	// draw the wide scorer. The choice follows from Q alone.
	rows := ds.pools.batch
	if len(wq) > 1 {
		rows = multiScoreRows
	}
	// queues[q*channels+ch] is query q's queue on channel ch.
	queues := make([]*topk.Queue, len(wq)*channels)
	workers := min(runtime.GOMAXPROCS(0), channels)
	var par struct {
		wg   sync.WaitGroup
		mu   sync.Mutex // guards wq[*].stats
		next atomic.Int64
	}
	for w := 0; w < workers; w++ {
		par.wg.Add(1)
		go func() {
			defer par.wg.Done()
			ctx := ds.pools.get(net, rows)
			defer ctx.release()
			sc := ctx.bind(st, qt, wq, qqs)
			qs, active := ctx.qs[:len(wq)], ctx.active[:len(wq)]
			if tier == nil {
				active = nil
			} else if ctx.bnd == nil {
				ctx.bnd = net.BoundScorer()
			}
			batch := len(ctx.ids)
			for {
				ch := int(par.next.Add(1) - 1)
				if ch >= channels {
					break
				}
				for q := range qs {
					qs[q] = topk.New(queueCap(wq[q].k, end-start))
					queues[q*channels+ch] = qs[q]
				}
				first := start + ((int64(ch)-start)%stride+stride)%stride
				for i := first; i < end; {
					segEnd := end
					if tier != nil {
						sf := tier.stripeFeatures
						seg := (i / stride) / sf
						segEnd = min(int64(ch)+stride*(seg+1)*sf, end)
						scanned := false
						for q := range qs {
							active[q] = !skipStripe(ctx.bnd, tier, wq[q].qfv, qs[q], ch, seg, &ctx.stats[q])
							if !active[q] {
								ctx.stats[q].featuresSkipped += (segEnd - i + stride - 1) / stride
							}
							scanned = scanned || active[q]
						}
						if !scanned {
							i = segEnd
							continue
						}
					}
					n := 0
					for ; i < segEnd; i += stride {
						sc.gather(n, i)
						ctx.ids[n] = i
						ctx.objs[n] = uint64(layout.Geom.Linear(layout.FeatureAddr(i)))
						n++
						if n == batch {
							ctx.drain(sc, qs, n, active)
							n = 0
						}
					}
					// Segment boundary: drain so the next skip decisions see
					// every offer of this channel so far.
					ctx.drain(sc, qs, n, active)
				}
			}
			par.mu.Lock()
			for q := range wq {
				wq[q].stats.add(ctx.stats[q])
			}
			par.mu.Unlock()
		}()
	}
	par.wg.Wait()
	for q := range wq {
		k := queueCap(wq[q].k, end-start)
		wq[q].top = topk.Merge(k, queues[q*channels:(q+1)*channels]...).Results()
	}
}

// skipStripe decides, at the entry of stripe seg of channel ch, whether the
// whole remaining segment can be skipped. Sound because (a) the decision is
// only taken when the shard queue is already full, (b) a full queue rejects
// offers with Score <= Min() given that later features have larger
// FeatureIDs (the queue's tie-break), and (c) the walk visits a channel's
// features in ascending FeatureID order. Partial stripes (sub-range start/
// end mid-stripe) are covered by the full stripe's envelope, which is a
// superset of any sub-range's — the bound is merely looser, never unsound.
func skipStripe(bnd *nn.BoundScorer, tier *boundTier, qfv []float32, q *topk.Queue, ch int, seg int64, ps *pruneStats) bool {
	floor, full := q.Min()
	if !full {
		return false
	}
	ps.checked++
	if bnd.UpperBound(qfv, &tier.envs[ch][seg]) <= floor {
		ps.skipped++
		return true
	}
	return false
}

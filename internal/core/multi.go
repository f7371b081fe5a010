package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/topk"
)

// multiGroupKey identifies queries that can share one sweep: same database
// range scanned by the same model on the same accelerator level.
type multiGroupKey struct {
	st    *dbState
	net   *nn.Network
	level accel.Level
	start int64
	end   int64
}

type multiGroup struct {
	key     multiGroupKey
	members []int // indices into the batch's items, in submission order
}

// QueryMulti submits a batch of queries that share scans: cache-missing
// queries over the same (model, database range, level) are grouped, and
// each group pays ONE event-driven sweep — one flash read stream, one
// weight-streaming pass — while the functional scoring packs all of the
// group's queries into shared GEMM batches (nn.BatchScorer.ScoreMulti).
// Query IDs are returned in spec order.
//
// Equivalence guarantee: every query's top-K (IDs, scores, object IDs),
// cache-hit flag, latency, stage sum, and energy are bit-identical to
// submitting the same specs sequentially through Query. The query cache
// sees lookups and inserts in exactly submission order (inserted entries'
// results are filled in after the sweep, which no cache decision depends
// on), and each query is still charged the full scan latency and energy —
// what the batch amortizes is the device timeline (the engine clock and
// flash traffic advance once per group, not once per query), which is the
// throughput win MultiQueryBench measures. The only intentional difference
// is the stage name: shared_scan instead of scan. Under flash read faults
// the per-query fault draws depend on the number of scans issued, so
// latencies may differ from the sequential oracle; results remain
// identical.
//
// Validation is all-or-nothing: if any spec is invalid, no query executes.
func (ds *DeepStore) QueryMulti(specs []QuerySpec) ([]QueryID, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: empty multi-query batch")
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()

	items := make([]queryItem, len(specs))
	for i, spec := range specs {
		it, err := ds.resolveSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("core: multi query %d: %w", i, err)
		}
		items[i] = it
	}
	t0 := ds.engine.Now()

	// Pass 1 — cache decisions in submission order. Lookup outcomes, LRU
	// promotion, and insertion order depend only on the query vectors, so
	// running them up front is indistinguishable from the sequential
	// interleaving; hits on not-yet-swept batch-mates receive a pending
	// entry whose backing array the sweep fills before pass 3 reads it.
	var groups []*multiGroup
	groupIdx := make(map[multiGroupKey]int)
	for i := range items {
		it := &items[i]
		ds.lookup(it)
		if it.hit {
			continue
		}
		key := multiGroupKey{st: it.st, net: it.net, level: it.level, start: it.start, end: it.end}
		gi, ok := groupIdx[key]
		if !ok {
			gi = len(groups)
			groups = append(groups, &multiGroup{key: key})
			groupIdx[key] = gi
		}
		groups[gi].members = append(groups[gi].members, i)
		if ds.qc != nil {
			if it.st.vectors != nil {
				it.pending = make([]topk.Entry, queueCap(it.spec.K, it.end-it.start))
			}
			ds.qc.Insert(cloneVec(it.spec.QFV), it.pending)
		}
	}

	// Pass 2 — the shared functional walk (which also makes each member's
	// stripe-skip decisions) and then the event-driven scans per group, in
	// first-miss order. Pruned members can survive different feature counts,
	// so the device timeline advances once per DISTINCT survivor count —
	// with pruning off that is exactly one scan per group. In two-pass exact
	// quantized mode the walk collects K·margin candidates per member, and
	// each member's fp32 rerank restores its exact top-K before the cache
	// entry is filled.
	for _, g := range groups {
		k := g.key
		wq := make([]walkQuery, len(g.members))
		for j, qi := range g.members {
			wq[j] = walkQuery{qfv: items[qi].spec.QFV, k: ds.scanK(k.st, items[qi].spec.K, k.end-k.start)}
		}
		ds.walk(k.net, k.st, wq, k.start, k.end)
		scans := map[int64]accel.ScanResult{}
		for j, qi := range g.members {
			it := &items[qi]
			survivors := k.end - k.start - wq[j].stats.featuresSkipped
			scanOut, ok := scans[survivors]
			if !ok {
				var err error
				scanOut, err = ds.simulateScanCount(k.net, k.st, k.level, survivors)
				if err != nil {
					return nil, err
				}
				scans[survivors] = scanOut
			}
			ds.chargeMiss(it, &wq[j], scanOut, obs.StageSharedScan)
			if it.pending != nil {
				copy(it.pending, it.result.TopK)
				it.result.TopK = it.pending
			}
		}
		ds.obs.Counter("core_shared_scans").Inc()
		ds.obs.Counter("core_shared_scan_queries").Add(int64(len(g.members)))
	}

	// Pass 3 — re-rank hits (every pending entry is filled by now) and
	// finish all queries in submission order. History appends land in
	// submission order, after the batch's cache decisions (pass 1). A mining
	// refresh triggered mid-batch therefore applies from the NEXT batch on,
	// whereas sequential Query calls would apply it to the very next query —
	// top-K answers are unaffected, but admission decisions can differ across
	// a mine boundary inside a batch.
	ids := make([]QueryID, len(specs))
	for i := range items {
		it := &items[i]
		if it.hit {
			ds.chargeHit(it)
		}
		ids[i] = ds.finishQuery(it, t0)
	}
	ds.obs.Counter("core_multi_batches").Inc()
	return ids, nil
}

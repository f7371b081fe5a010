package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/sim"
	"repro/internal/systolic"
	"repro/internal/topk"
)

// QuerySpec is the query API's argument block (Table 2): the query feature
// vector, how many results to retrieve, the SCN model, the database
// sub-range to search, and which accelerator level to use.
type QuerySpec struct {
	QFV     []float32
	K       int
	Model   ModelID
	DB      ftl.DBID
	DBStart int64 // first feature index (inclusive)
	DBEnd   int64 // last feature index (exclusive); 0 means the whole DB
	// Level overrides the engine default when non-nil.
	Level *accel.Level
}

func specFor(ds *DeepStore, level accel.Level) accel.Spec {
	return accel.SpecForLevel(level, ds.dev.Config)
}

// Query submits an intelligent query (query). The engine checks the query
// cache, and on a miss maps the SCN scan across the selected accelerators
// and reduces their per-accelerator top-K queues into the final result
// (§4.2, §4.7.1). Returns the query_id for getResults.
//
// Query is safe for concurrent callers: the engine mutex serializes the
// simulated-time accounting (the §4.7.1 dispatcher is a single embedded
// core), while the functional scoring inside each query fans out across a
// worker pool. The query-cache lookup and insert happen atomically with the
// latency accounting, so concurrent queries observe a consistent cache.
func (ds *DeepStore) Query(spec QuerySpec) (QueryID, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.queryLocked(spec)
}

// queryItem is one query on its way through the engine: its resolved spec
// plus the cache decision carried from the lookup to the scan and finish
// steps. Query handles one; QueryMulti handles a batch.
type queryItem struct {
	spec  QuerySpec
	st    *dbState
	net   *nn.Network
	level accel.Level
	start int64
	end   int64

	result       *QueryResult
	lookupLat    sim.Duration
	lookupEnergy energy.Breakdown
	hit          bool
	cached       qcache.Entry[[]float32]
	// pending is QueryMulti's query-cache entry result slice, inserted at
	// lookup time (preserving per-submission cache order) and filled after
	// the shared sweep computes the real top-K.
	pending []topk.Entry
}

// resolveSpec validates a query spec against the engine's tables and
// resolves its defaults (full-DB range, engine-default accelerator level).
// Callers hold ds.mu.
func (ds *DeepStore) resolveSpec(spec QuerySpec) (queryItem, error) {
	it := queryItem{spec: spec, result: &QueryResult{}}
	var err error
	if it.st, err = ds.db(spec.DB); err != nil {
		return it, err
	}
	if it.net, err = ds.model(spec.Model); err != nil {
		return it, err
	}
	if spec.K < 1 {
		return it, fmt.Errorf("core: top-K %d < 1", spec.K)
	}
	layout := it.st.meta.Layout
	if int64(len(spec.QFV))*4 != layout.FeatureBytes {
		return it, fmt.Errorf("core: query feature has %d dims, database stores %d-byte features",
			len(spec.QFV), layout.FeatureBytes)
	}
	if it.net.FeatureBytes() != layout.FeatureBytes {
		return it, fmt.Errorf("core: model %q expects %d-byte features, database stores %d",
			it.net.Name, it.net.FeatureBytes(), layout.FeatureBytes)
	}
	it.start, it.end = spec.DBStart, spec.DBEnd
	if it.end == 0 {
		it.end = layout.Features
	}
	if it.start < 0 || it.end > layout.Features || it.start >= it.end {
		return it, fmt.Errorf("core: query range [%d, %d) invalid for %d features", it.start, it.end, layout.Features)
	}
	it.level = ds.opts.DefaultLevel
	if spec.Level != nil {
		it.level = *spec.Level
	}
	if it.level < accel.LevelSSD || it.level > accel.LevelChip {
		return it, fmt.Errorf("core: unknown accelerator level %d", int(it.level))
	}
	return it, nil
}

func (ds *DeepStore) queryLocked(spec QuerySpec) (QueryID, error) {
	it, err := ds.resolveSpec(spec)
	if err != nil {
		return 0, err
	}
	t0 := ds.engine.Now()
	ds.lookup(&it)
	if it.hit {
		ds.chargeHit(&it)
		return ds.finishQuery(&it, t0), nil
	}

	// Miss: scan of the requested range, mapped across accelerators. The
	// functional walk runs first — with the pruning tier active it also
	// decides which stripes the hardware would skip — and the event-driven
	// scan is then charged for exactly the surviving features.
	w := []walkQuery{{qfv: spec.QFV, k: ds.scanK(it.st, spec.K, it.end-it.start)}}
	ds.walk(it.net, it.st, w, it.start, it.end)
	scanOut, err := ds.simulateScanCount(it.net, it.st, it.level, it.end-it.start-w[0].stats.featuresSkipped)
	if err != nil {
		return 0, err
	}
	ds.chargeMiss(&it, &w[0], scanOut, obs.StageScan)
	if ds.qc != nil {
		ds.qc.Insert(cloneVec(spec.QFV), it.result.TopK)
	}
	return ds.finishQuery(&it, t0), nil
}

// lookup runs the query-cache sweep for it (Algorithm 1). The QCN
// comparisons execute on the channel-level accelerators; their latency AND
// energy are charged per entry (the comparisons run on real hardware either
// way — omitting their joules would overstate the cache's Fig. 13/14 energy
// win).
func (ds *DeepStore) lookup(it *queryItem) {
	if ds.qc == nil {
		return
	}
	entries := ds.qc.Len()
	it.cached, it.hit = ds.qc.Lookup(it.spec.QFV, ds.qcThreshold)
	it.lookupLat = ds.qcLookupLatency(entries)
	it.lookupEnergy = ds.comparisonEnergy(ds.qcn, accel.LevelChannel, int64(entries))
}

// chargeHit fills a cache hit's result. Line 13 of Algorithm 1 re-ranks the
// cached entry's features against the new query with the SCN; the query
// pays the lookup plus that rerank.
func (ds *DeepStore) chargeHit(it *queryItem) {
	r := it.result
	n := int64(len(it.cached.Results))
	r.CacheHit = true
	r.TopK = ds.rerank(it.net, it.st, it.spec.QFV, it.cached.Results, it.spec.K)
	r.FeaturesScanned = n
	rerankLat := ds.rerankLatency(it.net, it.level, n)
	r.Latency = it.lookupLat + rerankLat
	r.Stages = []obs.Stage{
		{Name: obs.StageQCacheLookup, Dur: it.lookupLat},
		{Name: obs.StageRerank, Dur: rerankLat},
	}
	r.Energy = it.lookupEnergy
	r.Energy.Add(ds.comparisonEnergy(it.net, it.level, n))
}

// chargeMiss fills a cache miss's result from its functional walk w and its
// event-driven scan: features scanned and skipped, then the latency, stage
// and energy of the lookup (with a cache configured), bound_check (with the
// pruning tier active), the scan (named scanStage) and, in two-pass exact
// quantized mode, rerank_exact. In that mode the walk collected K·margin int8
// candidates, and the fp32 rerank restores the exact top-K; it batches
// through the same pooled GEMM path, and topk's strict (score, featureID)
// total order makes the result independent of candidate order.
func (ds *DeepStore) chargeMiss(it *queryItem, w *walkQuery, scanOut accel.ScanResult, scanStage string) {
	r := it.result
	ps := w.stats
	r.FeaturesScanned = it.end - it.start - ps.featuresSkipped
	r.Prune = PruneStats{
		StripesChecked:  ps.checked,
		StripesSkipped:  ps.skipped,
		FeaturesSkipped: ps.featuresSkipped,
	}
	r.Latency = it.lookupLat + scanOut.Elapsed
	if ds.qc != nil {
		r.Stages = append(r.Stages, obs.Stage{Name: obs.StageQCacheLookup, Dur: it.lookupLat})
	}
	r.Energy = it.lookupEnergy
	if tier := ds.pruneTier(it.st); tier != nil {
		boundLat := ds.boundCheckLatency(it.net, it.level, tier, ps.checked)
		ds.recordPruneStats(ps)
		r.Latency += boundLat
		r.Stages = append(r.Stages, obs.Stage{Name: obs.StageBoundCheck, Dur: boundLat})
		r.Energy.Add(ds.boundCheckEnergy(it.net, it.level, tier, ps.checked))
	}
	r.Stages = append(r.Stages, obs.Stage{Name: scanStage, Dur: scanOut.Elapsed})
	r.Energy.Add(ds.emodel.Energy(scanOut.Activity))
	r.TopK = w.top
	if ds.twoPass(it.st) {
		cands := int64(len(w.top))
		r.TopK = ds.rerank(it.net, it.st, it.spec.QFV, w.top, it.spec.K)
		rrLat := ds.rerankExactLatency(it.net, it.st, it.level, cands)
		r.Latency += rrLat
		r.Stages = append(r.Stages, obs.Stage{Name: obs.StageRerankExact, Dur: rrLat})
		r.Energy.Add(ds.rerankExactEnergy(it.net, it.st, it.level, cands))
	}
}

// emitQuerySpans lays the query's stages out sequentially from t0 on the
// simulated clock, under one parent "query" span on the query's track. Stage
// latencies are analytic (the event engine only advances during the scan), so
// the track is the canonical sequential decomposition of Result.Latency
// rather than a replay of engine events; the "flash" category carries the
// event-level page-read detail.
func (ds *DeepStore) emitQuerySpans(id QueryID, t0 sim.Time, r *QueryResult) {
	if ds.tracer == nil {
		return
	}
	ds.tracer.Add(obs.Span{
		Name: "query", Cat: "core", TID: int64(id),
		Start: t0, Dur: r.Latency,
		Args: map[string]string{"cache_hit": strconv.FormatBool(r.CacheHit)},
	})
	cursor := t0
	for _, s := range r.Stages {
		ds.tracer.Add(obs.Span{Name: s.Name, Cat: "core", TID: int64(id), Start: cursor, Dur: s.Dur})
		cursor += sim.Time(s.Dur)
	}
}

// Queries submits a batch of queries and returns their IDs in spec order —
// the multi-query entry point that keeps the scoring worker pool busy across
// a trace. Queries execute concurrently; the engine mutex keeps every
// query's simulated accounting atomic, so the batch's aggregate SimTime and
// scanned-feature counts equal the serial replay's. With a query cache
// configured, hit patterns may differ from serial submission order (as on
// any concurrent server, LRU state depends on arrival interleaving).
func (ds *DeepStore) Queries(specs []QuerySpec) ([]QueryID, error) {
	ids := make([]QueryID, len(specs))
	errs := make([]error, len(specs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(specs) {
					return
				}
				ids[j], errs[j] = ds.Query(specs[j])
			}
		}()
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", j, err)
		}
	}
	return ids, nil
}

func cloneVec(v []float32) []float32 {
	c := make([]float32, len(v))
	copy(c, v)
	return c
}

// qcLookupLatency models scanning the query cache with the QCN on the
// channel-level accelerators (§6.5: ~0.3 ms for 1000 entries).
func (ds *DeepStore) qcLookupLatency(entries int) sim.Duration {
	if entries == 0 {
		return 0
	}
	spec := specFor(ds, accel.LevelChannel)
	perAccel := (int64(entries) + int64(spec.Count) - 1) / int64(spec.Count)
	secs := float64(perAccel*ds.qcnCycles) / spec.Array.FreqHz
	return sim.FromSeconds(secs)
}

// comparisonEnergy models the energy of n network comparisons on the given
// accelerator level: the systolic MACs plus scratchpad traffic of n forward
// passes, converted through the engine's energy model. Used for the QCN
// cache sweep and the SCN re-rank, which bypass the event-driven scan path.
func (ds *DeepStore) comparisonEnergy(net *nn.Network, level accel.Level, n int64) energy.Breakdown {
	if net == nil || n == 0 {
		return energy.Breakdown{}
	}
	spec := specFor(ds, level)
	cost := spec.Array.NetworkCost(net.LayerPlan())
	return ds.emodel.Energy(energy.Activity{
		MACs:      cost.MACs * n,
		SRAMBytes: (cost.SRAMReadBytes + cost.SRAMWriteBytes) * n,
		SRAMSize:  spec.Array.ScratchpadBytes,
		SRAMKind:  spec.SRAMKind,
	})
}

// rerankLatency models re-scoring the K cached features with the SCN.
func (ds *DeepStore) rerankLatency(net *nn.Network, level accel.Level, k int64) sim.Duration {
	spec := specFor(ds, level)
	cost := spec.Array.NetworkCost(net.LayerPlan())
	secs := float64(k*cost.Cycles) / spec.Array.FreqHz
	return sim.FromSeconds(secs)
}

// simulateScan runs the event-driven scan for the query's range.
func (ds *DeepStore) simulateScan(net *nn.Network, st *dbState, level accel.Level, start, end int64) (accel.ScanResult, error) {
	return ds.simulateScanCount(net, st, level, end-start)
}

// simulateScanCount runs the event-driven scan for `features` surviving
// features. A sub-range (or pruned) scan is striped identically to a full
// scan (§4.4), so a layout with the surviving feature count models it. A
// fully-pruned scan does no device work at all. A quantized scan reads the
// int8 table instead of the fp32 data — a quarter of the flash, NoC, and
// DRAM bytes per feature — and runs the arrays at INT8.
func (ds *DeepStore) simulateScanCount(net *nn.Network, st *dbState, level accel.Level, features int64) (accel.ScanResult, error) {
	if features <= 0 {
		return accel.ScanResult{}, nil
	}
	layout := st.meta.Layout
	spec := specFor(ds, level)
	if ds.quantFor(st) != nil {
		if ql, ok := st.meta.QuantTable(); ok {
			layout = ql
			spec.Array.Precision = systolic.INT8
		}
	}
	layout.Features = features
	return accel.Scan(accel.ScanRequest{
		Device:                 ds.dev,
		Spec:                   spec,
		Net:                    net,
		Layout:                 layout,
		WindowFeaturesPerAccel: ds.opts.TimingWindow,
	})
}

// recordPruneStats folds one scan's skip accounting into the engine
// counters. Only called while the pruning tier is active, so dense engines
// never grow the counters.
func (ds *DeepStore) recordPruneStats(ps pruneStats) {
	ds.obs.Counter("core_prune_stripes_checked").Add(ps.checked)
	ds.obs.Counter("core_prune_stripes_skipped").Add(ps.skipped)
	ds.obs.Counter("core_prune_features_skipped").Add(ps.featuresSkipped)
}

// rerank re-scores cached top-K features against the new query, batching
// the cached entries through the same pooled GEMM path the scan uses (a hit
// re-scores tens of features — one or two batches). Entries whose feature
// IDs fall outside the database are dropped. The queue is sized by the
// cached entries, not the query's range: cache lookups are not range-aware,
// so a hit can legitimately rerank more entries than the range holds.
func (ds *DeepStore) rerank(net *nn.Network, st *dbState, qfv []float32, cached []topk.Entry, k int) []topk.Entry {
	if st.vectors == nil {
		return cached
	}
	q := topk.New(queueCap(k, int64(len(cached))))
	ctx := ds.pools.get(net, ds.pools.batch)
	defer ctx.release()
	sc := ctx.bind(st, nil, []walkQuery{{qfv: qfv}}, nil)
	qs := ctx.qs[:1]
	qs[0] = q
	n := 0
	for _, e := range cached {
		if e.FeatureID < 0 || e.FeatureID >= int64(len(st.vectors)) {
			continue
		}
		sc.gather(n, e.FeatureID)
		ctx.ids[n] = e.FeatureID
		ctx.objs[n] = e.ObjectID
		n++
		if n == len(ctx.ids) {
			ctx.drain(sc, qs, n, nil)
			n = 0
		}
	}
	ctx.drain(sc, qs, n, nil)
	return q.Results()
}

// finishQuery completes a query in the engine's books: it appends the query
// to the history store, folds its latency, energy and stages into the stats
// and metrics, records the result for getResults and emits its spans.
func (ds *DeepStore) finishQuery(it *queryItem, t0 sim.Time) QueryID {
	r := it.result
	ds.appendHistory(it.spec, r)
	ds.stats.Queries++
	if r.CacheHit {
		ds.stats.CacheHits++
		ds.obs.Counter("core_cache_hits").Inc()
	}
	ds.stats.SimTime += r.Latency
	ds.stats.TotalJ += r.Energy.Total()
	ds.obs.Counter("core_queries").Inc()
	ds.obs.Counter("core_features_scanned").Add(r.FeaturesScanned)
	ds.obs.Histogram("core_query_latency_ms", obs.LatencyBucketsMs()).Observe(r.Latency.Seconds() * 1e3)
	for _, s := range r.Stages {
		ds.obs.Histogram("core_stage_"+s.Name+"_ms", obs.LatencyBucketsMs()).Observe(s.Dur.Seconds() * 1e3)
	}
	id := ds.record(r)
	ds.emitQuerySpans(id, t0, r)
	return id
}

func (ds *DeepStore) record(r *QueryResult) QueryID {
	id := ds.nextQueryID
	ds.nextQueryID++
	ds.queries[id] = &queryState{result: r}
	return id
}

// GetResults retrieves a query's top-K results (getResults), charging the
// DMA of the results to host memory on the external link. The transfer's
// elapsed time is added to the query's latency and to the engine's SimTime
// — result delivery is part of what the host observes.
func (ds *DeepStore) GetResults(id QueryID) (*QueryResult, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, ok := ds.queries[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown query %d", id)
	}
	// Each result row carries the feature vector address and score.
	before := ds.engine.Now()
	ds.dev.External.Transfer(int64(len(st.result.TopK))*16, nil)
	ds.engine.Run()
	dma := sim.Duration(ds.engine.Now() - before)
	st.result.Latency += dma
	st.result.Stages = append(st.result.Stages, obs.Stage{Name: obs.StageDMA, Dur: dma})
	ds.stats.SimTime += dma
	ds.obs.Counter("core_get_results").Inc()
	ds.obs.Histogram("core_stage_"+obs.StageDMA+"_ms", obs.LatencyBucketsMs()).Observe(dma.Seconds() * 1e3)
	ds.tracer.Add(obs.Span{Name: obs.StageDMA, Cat: "core", TID: int64(id), Start: before, Dur: dma})
	// Return a snapshot so callers never observe a later GetResults call's
	// DMA accounting mutating their result. Stages is deep-copied because
	// later calls append to it.
	out := *st.result
	out.Stages = append([]obs.Stage(nil), st.result.Stages...)
	return &out, nil
}

// CacheStats exposes the query cache counters (zero stats when unset).
func (ds *DeepStore) CacheStats() (hits, misses uint64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.qc == nil {
		return 0, 0
	}
	s := ds.qc.Stats()
	return s.Hits, s.Misses
}

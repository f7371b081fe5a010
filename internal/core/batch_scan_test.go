package core

import (
	"fmt"
	"testing"

	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/topk"
	"repro/internal/workload"
)

// buildEngine writes a feature database for the named app and loads its SCN,
// returning everything the scan-level tests need.
func buildEngine(t *testing.T, opts Options, appName string, features int) (*DeepStore, *workload.FeatureDB, ModelID, ftl.DBID) {
	t.Helper()
	ds, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(1)
	db := workload.NewFeatureDB(app, features, 42)
	dbID, err := ds.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	return ds, db, model, dbID
}

// TestScoreRangeBatchedConvApp: the stripe walk matches the serial oracle
// on a convolutional SCN (ReId: subtract front end, two padded conv layers
// through the im2col path) over unaligned sub-ranges — top-K and skip
// accounting, fp32 and int8, dense and pruned.
func TestScoreRangeBatchedConvApp(t *testing.T) {
	if testing.Short() {
		t.Skip("ReId forward passes are slow")
	}
	type engine struct {
		name string
		ds   *DeepStore
		st   *dbState
		net  *nn.Network
	}
	var engines []engine
	for _, quant := range []bool{false, true} {
		for _, prune := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Prune = prune
			opts.Quantized = quant
			if quant {
				opts.RerankMargin = 4
			}
			ds, _, model, dbID := buildEngine(t, opts, "ReId", 150)
			engines = append(engines, engine{fmt.Sprintf("quant=%v/prune=%v", quant, prune), ds, ds.dbs[dbID], ds.models[model]})
		}
	}
	for _, c := range []struct {
		name       string
		start, end int64
	}{
		{"full", 0, 150},
		{"mid-stripe", 3, 141},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, e := range engines {
				q := e.st.vectors[9]
				serial, serialStats := e.ds.scoreRangeSerial(e.net, e.st, q, c.start, c.end, 10)
				batched, batchedStats := e.ds.walkOne(e.net, e.st, q, c.start, c.end, 10)
				assertSameTopK(t, e.name, batched, serial)
				if batchedStats != serialStats {
					t.Fatalf("%s: skip accounting %+v, oracle %+v", e.name, batchedStats, serialStats)
				}
			}
		})
	}
}

// TestQueryScanModesMatch: end-to-end Query results equal the serial
// oracle's across gather batch sizes (1, 7, and the default 64) — batch
// geometry must never leak into results.
func TestQueryScanModesMatch(t *testing.T) {
	for _, batch := range []int{0, 1, 7, 64} {
		name := fmt.Sprintf("batched/B=%d", batch)
		if batch == 0 {
			name = "batched/B=default"
		}
		t.Run(name, func(t *testing.T) {
			ds, _, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", 500)
			if batch > 0 {
				ds.pools.batch = batch
			}
			st := ds.dbs[dbID]
			qfv := st.vectors[3]
			want, _ := ds.scoreRangeSerial(ds.models[model], st, qfv, 0, 500, 10)
			qid, err := ds.Query(QuerySpec{QFV: qfv, K: 10, Model: model, DB: dbID})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ds.GetResults(qid)
			if err != nil {
				t.Fatal(err)
			}
			assertSameTopK(t, name, res.TopK, want)
		})
	}
}

// TestRerankBatchedMatchesScalar: the pooled batched rerank scores cached
// entries exactly as a per-feature Scorer walk would, including entries
// whose feature IDs fall outside the database (dropped, not scored).
func TestRerankBatchedMatchesScalar(t *testing.T) {
	ds, _, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", 300)
	st := ds.dbs[dbID]
	net := ds.models[model]
	qfv := st.vectors[5]
	cached, _ := ds.scoreRangeSerial(net, st, st.vectors[7], 0, 300, 40)
	cached = append(cached, topk.Entry{FeatureID: -1}, topk.Entry{FeatureID: 300})

	want := topk.New(10)
	scorer := net.Scorer()
	for _, e := range cached {
		if e.FeatureID < 0 || e.FeatureID >= int64(len(st.vectors)) {
			continue
		}
		want.Offer(topk.Entry{
			FeatureID: e.FeatureID,
			Score:     scorer.Score(qfv, st.vectors[e.FeatureID]),
			ObjectID:  e.ObjectID,
		})
	}
	wantRes := want.Results()
	got := ds.rerank(net, st, qfv, cached, 10)
	if len(got) != len(wantRes) {
		t.Fatalf("rerank returned %d entries, want %d", len(got), len(wantRes))
	}
	for i := range wantRes {
		if wantRes[i] != got[i] {
			t.Fatalf("entry %d differs: %+v != %+v", i, got[i], wantRes[i])
		}
	}
}

// TestScoreRangeBatchedAllocSteady: once the scanCtx pool is warm, the
// stripe walk's allocations are per-shard bookkeeping (queues, goroutines)
// — they must not grow with the number of features scored.
func TestScoreRangeBatchedAllocSteady(t *testing.T) {
	ds, _, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", 2000)
	st := ds.dbs[dbID]
	net := ds.models[model]
	q := st.vectors[17]
	ds.walkOne(net, st, q, 0, 2000, 10) // warm the pool
	small := testing.AllocsPerRun(5, func() { _, _ = ds.walkOne(net, st, q, 0, 200, 10) })
	large := testing.AllocsPerRun(5, func() { _, _ = ds.walkOne(net, st, q, 0, 2000, 10) })
	// 1800 extra features → ~29 extra GEMM batches; allow a little noise
	// from the scheduler but nothing proportional to the feature count.
	if large-small > 8 {
		t.Errorf("allocs grew with range: %v for 200 features vs %v for 2000", small, large)
	}
}

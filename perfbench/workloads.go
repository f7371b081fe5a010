package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/topk"
	"repro/internal/workload"
)

// K is the top-K every workload asks for.
const K = 10

// minTimed is the fewest queries a timed phase answers, so the host p90 has
// at least ten samples beyond it.
const minTimed = 100

// bench is one workload: its generated inputs and the engine built from them.
type bench interface {
	// setup builds a fresh engine from the generated inputs; it is the part
	// of the run timed as setup_s.
	setup(tr *spanLog) error
	// drive runs the timed phase on the engine from the last setup: at least
	// budget of host time, minTimed queries and the simulated prefix.
	drive(budget time.Duration, tr *spanLog) (*phase, error)
	// oracle returns the exact top-K for a query of the phase.
	oracle(r queryRec) []topk.Entry
	// verify is how many leading answered queries of the prefix are checked
	// against the oracle.
	verify() int
	// nets are the SCNs whose kernels the traced run times directly.
	nets() []*nn.Network
}

func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "dense_scan":
		return newDenseScan(seed)
	case "zipf_serve":
		return newZipfServe(seed)
	case "paper_scale":
		return newPaperScale(seed)
	case "ingest_mixed":
		return newIngestMixed(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: dense_scan, zipf_serve, paper_scale, ingest_mixed)", name)
}

// closedLoop drives one client that submits its next query only after the
// previous one returned: Query then GetResults, timed together on the host
// clock. before, when set, runs ahead of query i (ingest_mixed appends there).
type closedLoop struct {
	ds     *core.DeepStore
	n      int // generated queries available
	prefix int
	spec   func(i int) core.QuerySpec
	before func(i int, p *phase, tr *spanLog)
	dbLen  func() int
}

func (c *closedLoop) drive(budget time.Duration, tr *spanLog) (*phase, error) {
	ds := c.ds
	p := &phase{prefix: c.prefix, flashStart: ds.FlashStats()}
	minQ := max(c.prefix, minTimed)
	start := time.Now()
	for i := 0; i < c.n; i++ {
		if i >= minQ && time.Since(start) >= budget {
			break
		}
		if c.before != nil {
			c.before(i, p, tr)
		}
		rec := queryRec{input: i, dbLen: c.dbLen()}
		spec := c.spec(i)
		root := tr.begin("query", -1)
		t := time.Now()
		var qid core.QueryID
		tr.call("core.Query", root, func() { qid, rec.err = ds.Query(spec) })
		if rec.err == nil {
			tr.call("core.GetResults", root, func() { rec.res, rec.err = ds.GetResults(qid) })
		}
		rec.host = time.Since(t)
		tr.end(root)
		p.recs = append(p.recs, rec)
		if i == c.prefix-1 {
			for _, r := range p.recs {
				if r.res != nil {
					p.prefixServed++
					p.simBusy += r.res.Latency
				}
			}
			p.prefixAppends = len(p.appends)
			p.snap, p.flashPrefix, p.hist = ds.MetricsSnapshot(), ds.FlashStats(), ds.HistoryStats()
		}
	}
	p.wall = time.Since(start)
	p.flashEnd = ds.FlashStats()
	if len(p.recs) < c.prefix {
		return nil, fmt.Errorf("only %d generated queries, prefix needs %d", len(p.recs), c.prefix)
	}
	return p, nil
}

// setupEngine creates an engine, writes db (WriteDB also builds any prune or
// int8 tables the options ask for) and loads the SCN.
func setupEngine(opts core.Options, db [][]float32, scn *nn.Network, tr *spanLog) (*core.DeepStore, ftl.DBID, core.ModelID, error) {
	ds, err := core.New(opts)
	if err != nil {
		return nil, 0, 0, err
	}
	var id ftl.DBID
	var model core.ModelID
	tr.call("core.WriteDB", -1, func() { id, err = ds.WriteDB(db) })
	if err != nil {
		return nil, 0, 0, err
	}
	tr.call("core.LoadModel", -1, func() { model, err = ds.LoadModelNetwork(scn) })
	if err != nil {
		return nil, 0, 0, err
	}
	return ds, id, model, nil
}

// warm runs one query whose answer is discarded, so the timed phase starts
// with the engine's scoring pools populated.
func warm(ds *core.DeepStore, spec core.QuerySpec) error {
	qid, err := ds.Query(spec)
	if err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	_, err = ds.GetResults(qid)
	return err
}

// ---------------------------------------------------------------- dense_scan

const (
	denseFeatures = 1024
	denseQueries  = 2048 // generated; a run stops early if it uses them all
	densePrefix   = minTimed
	denseVerify   = 16
)

type denseScan struct {
	app  *workload.App
	db   [][]float32
	qfvs [][]float32
	warm []float32
	closedLoop
	dbID  ftl.DBID
	model core.ModelID
}

func newDenseScan(seed int64) (*denseScan, error) {
	app, err := workload.ByName("TIR")
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(seed)
	dims := app.SCN.FeatureElems()
	b := &denseScan{app: app, db: workload.NewFeatureDB(app, denseFeatures, seed+1).Vectors}
	for i := 0; i < denseQueries; i++ {
		b.qfvs = append(b.qfvs, workload.QueryVector(workload.Query{ID: int64(i), SemanticID: int64(i)}, dims, seed+2))
	}
	b.warm = workload.QueryVector(workload.Query{SemanticID: -1}, dims, seed+2)
	b.closedLoop = closedLoop{n: denseQueries, prefix: densePrefix,
		spec:  func(i int) core.QuerySpec { return b.spec(b.qfvs[i]) },
		dbLen: func() int { return denseFeatures }}
	return b, nil
}

func (b *denseScan) spec(q []float32) core.QuerySpec {
	return core.QuerySpec{QFV: q, K: K, Model: b.model, DB: b.dbID}
}

func (b *denseScan) setup(tr *spanLog) error {
	var err error
	b.ds, b.dbID, b.model, err = setupEngine(core.DefaultOptions(), b.db, b.app.SCN, tr)
	if err != nil {
		return err
	}
	return warm(b.ds, b.spec(b.warm))
}

func (b *denseScan) oracle(r queryRec) []topk.Entry {
	return exactTopK(b.app.SCN, b.qfvs[r.input], b.db, K)
}

func (b *denseScan) verify() int         { return denseVerify }
func (b *denseScan) nets() []*nn.Network { return []*nn.Network{b.app.SCN} }

// -------------------------------------------------------------- ingest_mixed

const (
	ingestFeatures = 2048
	ingestStripe   = 8 // prune stripe features, as exp.PruneSweep uses
	ingestNoise    = 0.02
	ingestAlpha    = 0.8
	// ingestMargin is the RerankMargin of the exact two-pass int8 mode. The
	// engine is exact only when K·margin covers the int8 rank of every true
	// top-K member. The random TextQA SCN's scores crowd within ~1e-4 of each
	// other, near int8 resolution: over seeds 1–40 (64 checked queries each)
	// the deepest true top-K member sat at int8 rank 112 (0-based), and
	// margin 8 missed one on seed 227727037 (rank 80). Margin 32 keeps 320
	// candidates, about three times the deepest rank seen.
	ingestMargin      = 32
	ingestAppendEvery = 16
	ingestAppendSize  = 16
	ingestQueries     = 4096
	ingestPrefix      = minTimed
	ingestVerify      = 64
)

type ingestMixed struct {
	app      *workload.App
	all      [][]float32 // base features, then every append batch in order
	qfvs     [][]float32
	warm     []float32
	features int // features in the database on the current engine
	closedLoop
	dbID  ftl.DBID
	model core.ModelID
}

func newIngestMixed(seed int64) (*ingestMixed, error) {
	app, err := workload.ByName("TextQA")
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(seed)
	dims := app.SCN.FeatureElems()
	// Block-clustered corpus built as exp.PruneSweep builds it: each run of
	// Channels*stripe contiguous features shares a semantic centroid, so a
	// block is one stripe row and stripe envelopes are tight.
	blockLen := core.DefaultOptions().Device.Geometry.Channels * ingestStripe
	blocks := (ingestFeatures + blockLen - 1) / blockLen
	rng := rand.New(rand.NewSource(seed + 2))
	centroid := func(b int) []float32 {
		return workload.QueryVector(workload.Query{SemanticID: int64(b)}, dims, seed+1)
	}
	member := func(c []float32) []float32 {
		v := make([]float32, dims)
		for d := range v {
			v[d] = c[d] + ingestNoise*(rng.Float32()*2-1)
		}
		return v
	}
	b := &ingestMixed{app: app}
	for i := 0; i < ingestFeatures; i++ {
		b.all = append(b.all, member(centroid(i/blockLen)))
	}
	// Appended features join a random existing cluster.
	for j := 0; j < ingestQueries/ingestAppendEvery; j++ {
		c := centroid(rng.Intn(blocks))
		for i := 0; i < ingestAppendSize; i++ {
			b.all = append(b.all, member(c))
		}
	}
	trace := workload.GenerateTrace(workload.TraceConfig{
		Universe: int64(blocks), Length: ingestQueries, Dist: workload.Zipfian,
		Alpha: ingestAlpha, MaxJitter: ingestNoise, Seed: seed + 3,
	})
	for _, q := range trace.Queries {
		b.qfvs = append(b.qfvs, workload.QueryVector(q, dims, seed+1))
	}
	b.warm = workload.QueryVector(workload.Query{SemanticID: -1}, dims, seed+1)
	b.closedLoop = closedLoop{n: ingestQueries, prefix: ingestPrefix,
		spec:   func(i int) core.QuerySpec { return b.spec(b.qfvs[i]) },
		before: b.maybeAppend,
		dbLen:  func() int { return b.features }}
	return b, nil
}

func (b *ingestMixed) spec(q []float32) core.QuerySpec {
	return core.QuerySpec{QFV: q, K: K, Model: b.model, DB: b.dbID}
}

func (b *ingestMixed) setup(tr *spanLog) error {
	opts := core.DefaultOptions()
	opts.Prune = true
	opts.PruneStripeFeatures = ingestStripe
	opts.Quantized = true
	opts.RerankMargin = ingestMargin
	var err error
	b.ds, b.dbID, b.model, err = setupEngine(opts, b.all[:ingestFeatures], b.app.SCN, tr)
	if err != nil {
		return err
	}
	b.features = ingestFeatures
	return warm(b.ds, b.spec(b.warm))
}

// maybeAppend issues the next AppendDB every ingestAppendEvery queries.
func (b *ingestMixed) maybeAppend(i int, p *phase, tr *spanLog) {
	if i == 0 || i%ingestAppendEvery != 0 {
		return
	}
	batch := b.all[b.features : b.features+ingestAppendSize]
	programs := b.ds.FlashStats().PagePrograms
	simStart := b.ds.Now()
	t := time.Now()
	var err error
	tr.call("core.AppendDB", -1, func() { err = b.ds.AppendDB(b.dbID, batch) })
	rec := appendRec{host: time.Since(t), simDur: sim.Duration(b.ds.Now() - simStart), err: err}
	rec.programs = b.ds.FlashStats().PagePrograms - programs
	if err == nil {
		b.features += ingestAppendSize
	}
	p.appends = append(p.appends, rec)
}

func (b *ingestMixed) oracle(r queryRec) []topk.Entry {
	return exactTopK(b.app.SCN, b.qfvs[r.input], b.all[:r.dbLen], K)
}

func (b *ingestMixed) verify() int         { return ingestVerify }
func (b *ingestMixed) nets() []*nn.Network { return []*nn.Network{b.app.SCN} }

// --------------------------------------------------------------- paper_scale

const (
	paperVectors = 8 // distinct query vectors per app; the scan reads no vectors
	paperQueries = 1 << 20
	paperPrefix  = 100 // twenty rounds of the five apps
)

type paperScale struct {
	apps  []*workload.App
	qfvs  [][][]float32 // per app
	dbs   []ftl.DBID
	mods  []core.ModelID
	specs []workload.DBSpec
	closedLoop
}

func newPaperScale(seed int64) (*paperScale, error) {
	b := &paperScale{apps: workload.Apps()}
	for i, app := range b.apps {
		app.SCN.InitRandom(seed + int64(i))
		b.specs = append(b.specs, workload.PaperSpec(app))
		var vs [][]float32
		for j := 0; j < paperVectors; j++ {
			vs = append(vs, workload.QueryVector(workload.Query{ID: int64(j), SemanticID: int64(j)},
				app.SCN.FeatureElems(), seed+10))
		}
		b.qfvs = append(b.qfvs, vs)
	}
	n := len(b.apps)
	b.closedLoop = closedLoop{n: paperQueries, prefix: paperPrefix,
		spec: func(i int) core.QuerySpec {
			a := i % n
			return core.QuerySpec{QFV: b.qfvs[a][(i/n)%paperVectors], K: K, Model: b.mods[a], DB: b.dbs[a]}
		},
		dbLen: func() int { return 0 }}
	return b, nil
}

// setup declares every app's §6.1 database (sizes only, no vectors) on one
// engine with the default options and loads every SCN.
func (b *paperScale) setup(tr *spanLog) error {
	ds, err := core.New(core.DefaultOptions())
	if err != nil {
		return err
	}
	b.dbs, b.mods = nil, nil
	for i, app := range b.apps {
		var id ftl.DBID
		tr.call("core.DeclareDB", -1, func() { id, err = ds.DeclareDB(b.specs[i].FeatureBytes, b.specs[i].Features) })
		if err != nil {
			return err
		}
		var m core.ModelID
		tr.call("core.LoadModel", -1, func() { m, err = ds.LoadModelNetwork(app.SCN) })
		if err != nil {
			return err
		}
		b.dbs, b.mods = append(b.dbs, id), append(b.mods, m)
	}
	b.ds = ds
	return nil
}

// oracle: spec-only databases hold no vectors, so the exact answer is empty.
func (b *paperScale) oracle(queryRec) []topk.Entry { return []topk.Entry{} }
func (b *paperScale) verify() int                  { return paperPrefix }

func (b *paperScale) nets() []*nn.Network {
	var out []*nn.Network
	for _, a := range b.apps {
		out = append(out, a.SCN)
	}
	return out
}

// ---------------------------------------------------------------- zipf_serve

const (
	zipfFeatures  = 2048
	zipfBatch     = 16
	zipfEntries   = 32  // query-cache entries, well below the hot set
	zipfThreshold = 0.2 // hit when the QCN similarity is at least 0.8
	zipfUniverse  = 256
	zipfAlpha     = 0.8
	zipfJitter    = 0.05
	// zipfRate is the fixed offered load in queries per simulated second,
	// chosen once at ~0.9 of the ~71K q/sim-s that full 16-query batches
	// sustain: the knee of the service curve. It is never recalibrated.
	zipfRate     = 64000
	zipfArrivals = 8192 // generated; a run stops early if it uses them all
	zipfPrefix   = 768
	zipfVerify   = 128
)

// zipfTenants share the offered load unequally, with unequal weights and
// SLOs (simulated time).
var zipfTenants = []struct {
	name   string
	weight float64
	share  float64
	slo    sim.Duration
}{
	{"gold", 4, 0.2, 500 * sim.Microsecond},
	{"silver", 2, 0.3, 750 * sim.Microsecond},
	{"bronze", 1, 0.5, 1500 * sim.Microsecond},
}

type zipfServe struct {
	app      *workload.App
	db       [][]float32
	arrivals []workload.Arrival
	qfvs     [][]float32
	ds       *core.DeepStore
	dbID     ftl.DBID
	model    core.ModelID
}

// zipfQCN is a scaled dot-product QCN built like exp's qhistQCN: an exact
// repeat of an intent scores ~0.93 and unrelated queries ~0.5, so cache hits
// track same-intent repeats (random QCN weights would make hits arbitrary).
func zipfQCN(fe int) *nn.Network {
	qcn := nn.MustNetwork("bench-qcn", tensor.Shape{fe}, nn.CombineHadamard,
		nn.NewFC("sum", fe, 1, nn.ActSigmoid))
	fc := qcn.Layers[0].(*nn.FC)
	for i := range fc.W {
		fc.W[i] = 8 / float32(fe)
	}
	return qcn
}

func newZipfServe(seed int64) (*zipfServe, error) {
	app, err := workload.ByName("TextQA")
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(seed)
	dims := app.SCN.FeatureElems()
	b := &zipfServe{app: app, db: workload.NewFeatureDB(app, zipfFeatures, seed+1).Vectors}
	var loads []workload.TenantLoad
	for i, t := range zipfTenants {
		loads = append(loads, workload.TenantLoad{
			Tenant: t.name, RatePerSec: t.share * zipfRate,
			Trace: workload.TraceConfig{Universe: zipfUniverse, Dist: workload.Zipfian,
				Alpha: zipfAlpha, MaxJitter: zipfJitter, Seed: seed + 10 + int64(i)},
		})
	}
	horizon := sim.Duration(float64(zipfArrivals) / zipfRate * float64(sim.Second))
	b.arrivals, err = workload.OpenLoop(loads, horizon, seed+4)
	if err != nil {
		return nil, err
	}
	// The tenants draw from one shared intent population: each arrival takes
	// the next query of a single Zipfian trace. Per-tenant traces would give
	// every tenant its own hot set, and how those sets happen to overlap
	// moves the hit rate by a third from seed to seed.
	shared := workload.GenerateTrace(workload.TraceConfig{Universe: zipfUniverse, Length: len(b.arrivals),
		Dist: workload.Zipfian, Alpha: zipfAlpha, MaxJitter: zipfJitter, Seed: seed + 5})
	for i := range b.arrivals {
		b.arrivals[i].Query = shared.Queries[i]
		b.qfvs = append(b.qfvs, workload.QueryVector(shared.Queries[i], dims, seed+3))
	}
	return b, nil
}

func (b *zipfServe) setup(tr *spanLog) error {
	opts := core.DefaultOptions()
	opts.History = true
	opts.CacheAdmission = core.AdmissionLearned
	var err error
	b.ds, b.dbID, b.model, err = setupEngine(opts, b.db, b.app.SCN, tr)
	if err != nil {
		return err
	}
	tr.call("core.SetQC", -1, func() { err = b.ds.SetQC(zipfQCN(b.app.SCN.FeatureElems()), 1.0, zipfEntries, zipfThreshold) })
	return err
}

// drive replays the open-loop schedule through a sync-mode, manually pumped
// core.Server, paced by the device as exp.ServeBench drives it: arrivals that
// land while the device is busy are admitted before the next batch is cut,
// and cuts fire when the device is free and a batch is full or a deadline is
// due.
func (b *zipfServe) drive(budget time.Duration, tr *spanLog) (*phase, error) {
	ds := b.ds
	tcs := make([]core.TenantConfig, len(zipfTenants))
	for i, t := range zipfTenants {
		tcs[i] = core.TenantConfig{Name: t.name, Weight: t.weight, QueueDepth: 1024, SLO: t.slo}
	}
	srv, err := core.NewServer(ds, core.ServerConfig{
		Tenants: tcs, BatchSize: zipfBatch, DeadlineSlack: 100 * sim.Microsecond,
		AgingRate: 0.1, Sync: true, ManualPump: true,
	})
	if err != nil {
		return nil, err
	}
	p := &phase{prefix: zipfPrefix, flashStart: ds.FlashStats()}
	type pending struct {
		rec int
		ch  <-chan *core.QueryResult
	}
	var open []pending
	start := time.Now()
	unresolved := zipfPrefix
	served := 0
	prefixDone := func() {
		p.prefixServed = served
		p.snap, p.flashPrefix, p.hist = ds.MetricsSnapshot(), ds.FlashStats(), ds.HistoryStats()
		p.tenants = srv.TenantStats()
	}
	resolved := func(rec int) {
		if rec < zipfPrefix {
			if unresolved--; unresolved == 0 {
				prefixDone()
			}
		}
	}
	// collect takes the results a server call delivered. Each one's host
	// latency is its share of that call's duration: the host time spent
	// executing its batch, divided over the batch.
	collect := func(call time.Duration) {
		kept := open[:0]
		var got []int
		for _, o := range open {
			select {
			case res := <-o.ch:
				got = append(got, o.rec)
				r := &p.recs[o.rec]
				if res == nil {
					r.err = errors.New("server delivered no result")
				} else if res.Err != nil {
					r.err = res.Err
				} else {
					r.res = res
					served++
				}
				resolved(o.rec)
			default:
				kept = append(kept, o)
			}
		}
		open = kept
		for _, i := range got {
			p.recs[i].host = call / time.Duration(len(got))
		}
	}
	t0 := ds.Now()
	at := func(i int) sim.Time { return t0 + b.arrivals[i].At }
	submit := func(i int) error {
		a := b.arrivals[i]
		spec := core.QuerySpec{QFV: b.qfvs[i], K: K, Model: b.model, DB: b.dbID}
		p.recs = append(p.recs, queryRec{input: i, tenant: a.TenantIdx, dbLen: zipfFeatures})
		var ch <-chan *core.QueryResult
		var err error
		tr.call("core.Server.SubmitAt", -1, func() { ch, err = srv.SubmitAt(a.Tenant, spec, at(i)) })
		if errors.Is(err, core.ErrQueueFull) {
			p.recs[i].shed = true
			resolved(i)
			return nil
		}
		if err != nil {
			return err
		}
		open = append(open, pending{rec: i, ch: ch})
		return nil
	}
	// step runs one server call, charging the device time it spent serving
	// (the clock advance beyond any idle time up to target) to simBusy.
	step := func(name string, target sim.Time, fn func()) {
		before := ds.Now()
		t := time.Now()
		tr.call(name, -1, fn)
		call := time.Since(t)
		if target > before {
			before = target
		}
		if unresolved > 0 {
			p.simBusy += sim.Duration(ds.Now() - before)
		}
		collect(call)
	}
	n := len(b.arrivals)
	i := 0
	for i < n && !(unresolved == 0 && i >= minTimed && time.Since(start) >= budget) {
		free := ds.Now()
		for i < n && at(i) <= free {
			if err := submit(i); err != nil {
				srv.Close()
				return nil, err
			}
			i++
		}
		if srv.Pending() >= zipfBatch {
			step("core.Server.Pump", 0, srv.Pump)
			continue
		}
		cut, okCut := srv.NextDeadlineCut()
		if okCut && cut <= free {
			step("core.Server.Pump", 0, srv.Pump)
			continue
		}
		if i < n && (!okCut || at(i) <= cut) {
			t := at(i)
			step("core.Server.AdvanceTo", t, func() { srv.AdvanceTo(t) })
			if err := submit(i); err != nil {
				srv.Close()
				return nil, err
			}
			i++
			continue
		}
		if okCut {
			step("core.Server.AdvanceTo", cut, func() { srv.AdvanceTo(cut) })
			continue
		}
		if srv.Pending() > 0 {
			step("core.Server.Flush", 0, srv.Flush)
			continue
		}
		break
	}
	step("core.Server.Flush", 0, srv.Flush)
	step("core.Server.Close", 0, srv.Close)
	p.wall = time.Since(start)
	p.flashEnd = ds.FlashStats()
	if unresolved > 0 || len(open) > 0 {
		return nil, fmt.Errorf("server left %d prefix and %d submitted queries unresolved", unresolved, len(open))
	}
	return p, nil
}

func (b *zipfServe) oracle(r queryRec) []topk.Entry {
	return exactTopK(b.app.SCN, b.qfvs[r.input], b.db, K)
}

func (b *zipfServe) verify() int         { return zipfVerify }
func (b *zipfServe) nets() []*nn.Network { return []*nn.Network{b.app.SCN} }

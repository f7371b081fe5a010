package core

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/topk"
)

// featureScorer hides the format of the feature table a walk reads: gather
// loads database feature i into batch slot j, and score scores the first n
// slots against every query of the walk in one batched call, writing
// rows[q][j]. The fp32 and int8 implementations offer identical slots in
// identical order, so the walk's queue discipline does not depend on the
// format.
type featureScorer interface {
	gather(j int, i int64)
	score(rows [][]float32, n int)
}

// fp32Scorer scores the float32 feature vectors through nn.BatchScorer.
type fp32Scorer struct {
	bs   *nn.BatchScorer
	db   [][]float32 // the walk's database
	qfvs [][]float32 // the walk's queries
	dfvs [][]float32 // gather slots
}

func (s *fp32Scorer) gather(j int, i int64) { s.dfvs[j] = s.db[i] }

func (s *fp32Scorer) score(rows [][]float32, n int) {
	s.bs.ScoreMulti(rows, s.qfvs, s.dfvs[:n])
}

// int8Scorer scores the quantized feature table through
// nn.QuantBatchScorer.
type int8Scorer struct {
	bs   *nn.QuantBatchScorer
	db   []nn.QuantizedVector
	qs   []nn.QuantQuery
	dfvs []nn.QuantizedVector
}

func (s *int8Scorer) gather(j int, i int64) { s.dfvs[j] = s.db[i] }

func (s *int8Scorer) score(rows [][]float32, n int) {
	s.bs.ScoreMulti(rows, s.qs, s.dfvs[:n])
}

// multiScoreRows is the row capacity of the scorers a multi-query walk
// draws: one ScoreMulti chunk packs up to this many (query, feature) pair
// rows per GEMM pass, so shared sweeps get large matrix-matrix tiles even
// though each gather holds only the default score batch. A single-query
// walk draws scorers sized at the gather batch instead, which keeps its
// per-worker scratch at a fraction of this (e.g. 0.33 MB vs 2.6 MB on TIR).
const multiScoreRows = 512

// scanCtx is one worker's pooled scan context: the fp32 scorer (plus the
// int8 scorer on a quantized engine), the gather scratch the walk fills
// between scoring calls — feature IDs and object IDs per slot — and the
// per-query state a worker keeps across channels (score rows, the current
// channel's queues, skip masks and skip accounting). Slot scratch is sized
// to the engine's score batch at construction and the per-query slices
// grow to the largest Q seen, so a warm context walks without allocating.
type scanCtx struct {
	pool *sync.Pool
	f32  fp32Scorer
	i8   int8Scorer // bs is nil unless the engine is quantized
	bnd  *nn.BoundScorer
	ids  []int64
	objs []uint64

	rows   [][]float32
	qs     []*topk.Queue
	active []bool
	stats  []pruneStats
}

// bind points the context at one walk's database and queries and sizes its
// per-query state for them, returning the scorer for the table the walk
// reads (the int8 table when qt is non-nil).
func (c *scanCtx) bind(st *dbState, qt *quantState, wq []walkQuery, qqs []nn.QuantQuery) featureScorer {
	for len(c.rows) < len(wq) {
		c.rows = append(c.rows, make([]float32, len(c.ids)))
		c.qs = append(c.qs, nil)
		c.active = append(c.active, false)
		c.stats = append(c.stats, pruneStats{})
	}
	clear(c.stats[:len(wq)])
	if qt != nil {
		c.i8.db, c.i8.qs = qt.vecs, qqs
		return &c.i8
	}
	c.f32.db = st.vectors
	c.f32.qfvs = c.f32.qfvs[:0]
	for q := range wq {
		c.f32.qfvs = append(c.f32.qfvs, wq[q].qfv)
	}
	return &c.f32
}

// drain scores the n gathered slots against every query and offers each
// active query's scores to its queue in slot order (nil active means every
// query).
func (c *scanCtx) drain(sc featureScorer, qs []*topk.Queue, n int, active []bool) {
	if n == 0 {
		return
	}
	sc.score(c.rows, n)
	for q, queue := range qs {
		if active != nil && !active[q] {
			continue
		}
		row := c.rows[q]
		for j := 0; j < n; j++ {
			queue.Offer(topk.Entry{FeatureID: c.ids[j], Score: row[j], ObjectID: c.objs[j]})
		}
	}
}

// release drops every reference to the walk's database, queries and queues
// so a pooled context pins no memory between scans, and returns it to its
// pool.
func (c *scanCtx) release() {
	clear(c.f32.dfvs)
	clear(c.f32.qfvs)
	clear(c.i8.dfvs)
	clear(c.qs)
	c.f32.db, c.f32.qfvs = nil, c.f32.qfvs[:0]
	c.i8.db, c.i8.qs = nil, nil
	c.pool.Put(c)
}

// poolKey identifies one family of interchangeable contexts: a scorer's
// scratch is shaped by its network and its row capacity.
type poolKey struct {
	net  *nn.Network
	rows int
}

// batchPools hands out per-worker scanCtxs, one sync.Pool per (network,
// scorer rows). Get is called from scan workers without the engine mutex;
// the map is guarded by its own mutex and the pools themselves are
// concurrency-safe. On a quantized engine the pools also memoize one
// QuantNetwork per network (the int8 weight images are immutable and shared;
// per-worker scratch stays in the contexts).
type batchPools struct {
	mu sync.Mutex
	// batch is the gather slots per context: DefaultScoreBatch, except in
	// tests that check results do not depend on batch geometry.
	batch     int
	quantized bool
	pools     map[poolKey]*sync.Pool
	qnets     map[*nn.Network]*nn.QuantNetwork
}

// get returns a context whose scorers hold rows rows; release returns it.
func (p *batchPools) get(net *nn.Network, rows int) *scanCtx {
	p.mu.Lock()
	if p.pools == nil {
		p.pools = make(map[poolKey]*sync.Pool)
		p.qnets = make(map[*nn.Network]*nn.QuantNetwork)
	}
	key := poolKey{net, rows}
	pool, ok := p.pools[key]
	if !ok {
		b := p.batch
		var qn *nn.QuantNetwork
		if p.quantized {
			if qn, ok = p.qnets[net]; !ok {
				qn = net.Quantize()
				p.qnets[net] = qn
			}
		}
		pool = &sync.Pool{}
		pool.New = func() any {
			c := &scanCtx{
				pool: pool,
				f32:  fp32Scorer{bs: net.BatchScorer(rows), dfvs: make([][]float32, b)},
				ids:  make([]int64, b),
				objs: make([]uint64, b),
			}
			if qn != nil {
				c.i8 = int8Scorer{bs: qn.BatchScorer(rows), dfvs: make([]nn.QuantizedVector, b)}
			}
			return c
		}
		p.pools[key] = pool
	}
	p.mu.Unlock()
	return pool.Get().(*scanCtx)
}

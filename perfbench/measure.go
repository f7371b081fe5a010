package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topk"
)

// queryRec is one submitted query of a timed phase.
type queryRec struct {
	input  int               // index into the workload's generated query inputs
	tenant int               // zipf_serve tenant index (0 elsewhere)
	dbLen  int               // features in the database when the query ran
	host   time.Duration     // host latency
	res    *core.QueryResult // nil when shed or failed
	err    error
	shed   bool
}

// appendRec is one AppendDB call of a timed phase.
type appendRec struct {
	host     time.Duration
	simDur   sim.Duration // engine clock advance across the call
	programs uint64       // flash page programs the call charged
	err      error
}

// phase is everything one timed phase measured. The first `prefix` queries
// (and the appends issued before them) form the fixed simulated prefix: it
// does not depend on host speed, so every simulated statistic taken from it
// repeats exactly for a seed.
type phase struct {
	recs    []queryRec
	appends []appendRec
	// prefixAppends counts the appends issued inside the prefix.
	prefixAppends int
	prefix        int
	wall          time.Duration // host duration of the timed phase
	// prefixServed and simBusy are the queries answered and the device time
	// spent serving queries when the prefix completed.
	prefixServed int
	simBusy      sim.Duration
	// snap, flashPrefix and hist are the engine's counters when the prefix
	// completed; flashStart and flashEnd bracket the whole phase.
	snap                              obs.Snapshot
	flashStart, flashPrefix, flashEnd flash.Stats
	hist                              core.HistoryStats
	tenants                           map[string]core.TenantStats
}

// served returns the phase's answered queries.
func (p *phase) served() int {
	n := 0
	for _, r := range p.recs {
		if r.res != nil && r.err == nil {
			n++
		}
	}
	return n
}

// prefixResults returns the answered results of the simulated prefix.
func (p *phase) prefixResults() []*core.QueryResult {
	var out []*core.QueryResult
	for _, r := range p.recs[:p.prefix] {
		if r.res != nil && r.err == nil {
			out = append(out, r.res)
		}
	}
	return out
}

// quantile is the nearest-rank percentile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile is the highest of 99, 90 and 50 that leaves at least ten
// samples beyond it, so a tail figure never rests on a handful of values.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90} {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p
		}
	}
	return 50
}

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stageSumOK is the stage-sum invariant: a query's stage durations add up to
// its latency to the integer picosecond.
func stageSumOK(r *core.QueryResult) bool {
	var sum sim.Duration
	for _, s := range r.Stages {
		sum += s.Dur
	}
	return sum == r.Latency
}

// fingerprint digests every simulated observable of a phase's prefix: each
// query's shed flag, top-K IDs and score bits, latency in picoseconds,
// stages and energy, plus each prefix append's simulated time and programs.
// A change that only touches host speed must leave it unchanged.
func fingerprint(p *phase) uint64 {
	h := fnv.New64a()
	put := func(h hash.Hash64, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range p.recs[:p.prefix] {
		if r.res == nil {
			put(h, math.MaxUint64)
			continue
		}
		put(h, uint64(len(r.res.TopK)))
		for _, e := range r.res.TopK {
			put(h, uint64(e.FeatureID))
			put(h, uint64(math.Float32bits(e.Score)))
		}
		put(h, uint64(r.res.Latency))
		for _, s := range r.res.Stages {
			h.Write([]byte(s.Name))
			put(h, uint64(s.Dur))
		}
		put(h, math.Float64bits(r.res.Energy.ComputeJ))
		put(h, math.Float64bits(r.res.Energy.MemoryJ))
		put(h, math.Float64bits(r.res.Energy.FlashJ))
	}
	for _, a := range p.appends[:p.prefixAppends] {
		put(h, uint64(a.simDur))
		put(h, a.programs)
	}
	return h.Sum64()
}

// exactTopK is the benchmark's own oracle: every feature of db scored by the
// reference per-pair nn.Scorer, ranked by topk. It shares no code with the
// engine's scan walks.
func exactTopK(net *nn.Network, qfv []float32, db [][]float32, k int) []topk.Entry {
	sc := net.Scorer()
	q := topk.New(k)
	for i, v := range db {
		q.Offer(topk.Entry{FeatureID: int64(i), Score: sc.Score(qfv, v)})
	}
	return q.Results()
}

// oracleAll computes exact answers for the listed jobs on two workers.
func oracleAll(n int, job func(i int) []topk.Entry) [][]topk.Entry {
	out := make([][]topk.Entry, n)
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i] = job(i)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// sameAnswer compares a returned top-K with the oracle's on feature IDs and
// score bits (ObjectID is a device address the oracle does not model).
func sameAnswer(got, want []topk.Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].FeatureID != want[i].FeatureID ||
			math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
			return false
		}
	}
	return true
}

// overlap is the share of want's feature IDs that got also returned.
func overlap(got, want []topk.Entry) float64 {
	if len(want) == 0 {
		return 1
	}
	ids := make(map[int64]bool, len(got))
	for _, e := range got {
		ids[e.FeatureID] = true
	}
	n := 0
	for _, e := range want {
		if ids[e.FeatureID] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}

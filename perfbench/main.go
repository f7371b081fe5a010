// Command perfbench is the repository's benchmark. It runs one named
// workload against the engine's public API from a single process, checks
// the answers against its own oracle, and prints end-to-end metrics on both
// clocks — host wall time and the simulated device clock — or, with
// --trace 1, per-layer metrics from a traced run. The last line of standard
// output is one JSON object; the lines before it are the readable report.
// README.md in this directory documents the workloads and metrics.
//
// Usage:
//
//	python3 perfbench/run.py --workload dense_scan --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/workload"
)

// An untraced run builds the engine at least minSetups times and until
// setupBudget has passed (at most maxSetups times); setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// endToEnd lists the metrics an untraced run carries in its JSON line, in
// BENCHMARK.json order: the host-clock ones, which vary from run to run.
// The simulated end-to-end metrics are exact for a seed and, on three of the
// four workloads, the same for every seed; the readable report prints them
// and the traced run carries them as sim.qps, sim.p50_us, sim.p90_us and
// sim.uj_per_query.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_qps", "q/s"},
	{"host_p50_ms", "ms"},
	{"host_p90_ms", "ms"},
	{"mem_peak_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json order.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, l := range append(append([]string{}, cpuLayers...), "runtime", "other") {
		add("frac", "cpu."+l)
	}
	add("GFLOP/s", "tensor.gemm_gflops")
	add("GOP/s", "tensor.gemm_int8_gops")
	add("ns", "nn.score_ns_per_feature")
	add("ms", "core.query_ms")
	add("us", "core.get_results_us")
	add("ms", "core.append_ms", "core.append_host_p50_ms", "core.serve_pump_ms")
	add("s", "core.writedb_s", "core.loadmodel_s", "core.setqc_s")
	add("count", "core.features_scanned_per_query", "core.shared_scans_per_query", "core.serve_batch_mean")
	add("ratio", "core.serve_deadline_cut_frac")
	add("count", "core.serve_shed")
	add("ratio", "core.serve_slo_miss_frac")
	for _, s := range stageNames {
		add("us", "stage."+s+"_us")
	}
	add("ratio", "qcache.hit_rate")
	add("count", "qcache.comparisons_per_lookup", "qcache.evictions", "qcache.admission_rejects")
	add("ratio", "qcache.recall_at_k")
	add("count", "qhist.records", "qhist.mines")
	add("B", "qhist.hot_bytes_per_record", "qhist.cold_bytes_per_record")
	add("count", "prune.stripes_checked_per_query")
	add("ratio", "prune.skip_frac")
	add("count", "flash.page_reads_per_query")
	add("B", "flash.bus_bytes_per_query")
	add("count", "flash.page_programs_per_append")
	add("us", "ftl.append_sim_us", "sim.host_us_per_page_read")
	add("q/sim-s", "sim.qps")
	add("us", "sim.p50_us", "sim.p90_us")
	add("uJ", "sim.uj_per_query")
	for _, a := range workload.AppNames() {
		add("ms", "accel.sim_ms."+a)
	}
	for _, a := range workload.AppNames() {
		add("x", "accel.paper_factor."+a)
	}
	add("x", "accel.paper_factor")
	add("uJ", "energy.compute_uj", "energy.memory_uj", "energy.flash_uj")
	add("count", "go.allocs_per_query")
	add("B", "go.alloc_bytes_per_query")
	add("ratio", "go.gc_cpu_frac", "trace.overhead_frac")
	return out
}()

// stageNames is the stage taxonomy the per-stage metrics cover.
var stageNames = []string{obs.StageQCacheLookup, obs.StageBoundCheck, obs.StageScan, obs.StageSharedScan,
	obs.StageSchedQueue, obs.StageRerank, obs.StageRerankExact, obs.StageDMA, obs.StageHistAppend, obs.StageHistMine}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "dense_scan, zipf_serve, paper_scale or ingest_mixed")
	seed := flag.Int64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Float64("seconds", 15, "host seconds the timed phase lasts (at least)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", "", "directory for the traced run's spans and CPU profile")
	flag.Parse()
	// One client goroutine; the engine's scan workers get the two cores the
	// benchmark is defined on.
	runtime.GOMAXPROCS(2)
	var res *result
	var err error
	budget := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		res, err = tracedRun(*name, *seed, budget, *out)
	} else {
		res, err = plainRun(*name, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checked is a phase's correctness accounting.
type checked struct {
	attempted, failed       int
	errs, shed, stageBroken int
	verified, wrong         int
	recall                  float64 // mean top-K overlap of the verified answers
}

// check verifies a phase: every query must be answered without error or
// shedding with stage durations summing to its latency, every append must
// succeed, and the leading verified answers of the prefix must equal the
// oracle's exact top-K (cache hits are approximate by design and only count
// towards recall). Oracle work happens here, outside the timed phase.
func check(b bench, p *phase) checked {
	c := checked{attempted: len(p.recs) + len(p.appends)}
	for _, r := range p.recs {
		switch {
		case r.shed:
			c.shed++
		case r.err != nil || r.res == nil:
			c.errs++
		case !stageSumOK(r.res):
			c.stageBroken++
		}
	}
	for _, a := range p.appends {
		if a.err != nil {
			c.errs++
		}
	}
	var jobs []queryRec
	for _, r := range p.recs[:p.prefix] {
		if r.res != nil && len(jobs) < b.verify() {
			jobs = append(jobs, r)
		}
	}
	want := oracleAll(len(jobs), func(i int) []topk.Entry { return b.oracle(jobs[i]) })
	var overlapSum float64
	for i, r := range jobs {
		overlapSum += overlap(r.res.TopK, want[i])
		if !r.res.CacheHit && !sameAnswer(r.res.TopK, want[i]) {
			c.wrong++
		}
	}
	c.verified = len(jobs)
	c.recall = 1
	if len(jobs) > 0 {
		c.recall = overlapSum / float64(len(jobs))
	}
	c.failed = c.errs + c.shed + c.stageBroken + c.wrong
	return c
}

// simView is the simulated-clock statistics of a phase's prefix.
type simView struct {
	lat      []float64 // µs, answered prefix queries, sorted
	energyUJ float64   // mean per answered query
	qps      float64
}

func simStats(p *phase) simView {
	var v simView
	var e float64
	for _, r := range p.prefixResults() {
		v.lat = append(v.lat, r.Latency.Microseconds())
		e += r.Energy.Total() * 1e6
	}
	v.lat = sorted(v.lat)
	if len(v.lat) > 0 {
		v.energyUJ = e / float64(len(v.lat))
	}
	if p.simBusy > 0 {
		v.qps = float64(p.prefixServed) / p.simBusy.Seconds()
	}
	return v
}

// peakRSSMB is the process's peak resident set size. It is steadier than
// runtime.MemStats.Sys, which grows in heap-arena steps of ~4 MB, so which
// side of a step one run's GC timing lands on moved Sys by 16% between runs
// of identical inputs.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func hostLatencies(p *phase) []float64 {
	var out []float64
	for _, r := range p.recs {
		if r.res != nil {
			out = append(out, float64(r.host)/1e6)
		}
	}
	return sorted(out)
}

func plainRun(name string, seed int64, budget time.Duration) (*result, error) {
	b, err := newBench(name, seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for total := 0.0; len(setups) < maxSetups && (len(setups) < minSetups || total < setupBudget.Seconds()); {
		runtime.GC()
		t := time.Now()
		if err := b.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		total += setups[len(setups)-1]
	}
	p, err := b.drive(budget, nil)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peakRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	c := check(b, p)
	host := hostLatencies(p)
	sv := simStats(p)
	if len(host) < minTimed || len(sv.lat) < minTimed {
		return nil, fmt.Errorf("too few samples for p90: %d host, %d simulated", len(host), len(sv.lat))
	}
	m := map[string]float64{
		"setup_s":          median(setups),
		"host_qps":         float64(p.served()) / p.wall.Seconds(),
		"host_p50_ms":      quantile(host, 50),
		"host_p90_ms":      quantile(host, 90),
		"mem_peak_mb":      peakRSS,
		"sim_qps":          sv.qps,
		"sim_p50_us":       quantile(sv.lat, 50),
		"sim_p90_us":       quantile(sv.lat, 90),
		"sim_uj_per_query": sv.energyUJ,
	}
	res := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	fmt.Printf("workload %s  seed %d  timed %.2f s  queries %d  appends %d\n",
		name, seed, p.wall.Seconds(), len(p.recs), len(p.appends))
	fmt.Printf("  setup_s         %12.6f s       median of %d setups\n", m["setup_s"], len(setups))
	fmt.Printf("  host_qps        %12.3f q/s     %d answered\n", m["host_qps"], p.served())
	fmt.Printf("  host_p50_ms     %12.4f ms      n=%d\n", m["host_p50_ms"], len(host))
	fmt.Printf("  host_p90_ms     %12.4f ms      n=%d, %d beyond\n", m["host_p90_ms"], len(host), len(host)-int(math.Ceil(0.9*float64(len(host)))))
	fmt.Printf("  mem_peak_mb     %12.3f MB      peak resident set after the timed phase (MemStats.Sys %.1f MB)\n",
		m["mem_peak_mb"], float64(ms.Sys)/(1<<20))
	fmt.Printf("  sim_qps         %12.1f q/sim-s %d answered in %.3f sim-ms of device time\n", m["sim_qps"], p.prefixServed, p.simBusy.Seconds()*1e3)
	fmt.Printf("  sim_p50_us      %12.3f us      n=%d (fixed prefix)\n", m["sim_p50_us"], len(sv.lat))
	tail := tailPercentile(len(sv.lat))
	fmt.Printf("  sim_p90_us      %12.3f us      n=%d, highest percentile with 10 beyond: p%g = %.3f us\n",
		m["sim_p90_us"], len(sv.lat), tail, quantile(sv.lat, tail))
	fmt.Printf("  sim_uj_per_query%12.4f uJ\n", m["sim_uj_per_query"])
	fmt.Printf("  fail_frac       %12.6f ratio   %d of %d failed (errors %d, shed %d, stage-sum %d, wrong exact answers %d of %d verified)\n",
		float64(c.failed)/float64(c.attempted), c.failed, c.attempted, c.errs, c.shed, c.stageBroken, c.wrong, c.verified)
	for _, sm := range specificMetrics(b, p, c) {
		fmt.Printf("  %-18s%10.6f %s\n", sm.name, sm.value, sm.unit)
	}
	fmt.Printf("  fingerprint     %016x    over %d prefix queries and %d appends (simulated results only)\n",
		fingerprint(p), p.prefix, p.prefixAppends)
	for _, e := range endToEnd {
		v := m[e.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", e.name, v)
		}
		res.Metrics[e.name] = metric{Value: v, Unit: e.unit}
	}
	return res, nil
}

// workloadMetric is an end-to-end metric only one workload has.
type workloadMetric struct {
	name, unit string
	value      float64
}

// specificMetrics are the end-to-end metrics only one workload has. The
// readable report prints them; the traced run reports them as the layer
// metrics core.append_host_p50_ms, core.serve_slo_miss_frac,
// qcache.recall_at_k and accel.paper_factor.
func specificMetrics(b bench, p *phase, c checked) []workloadMetric {
	switch w := b.(type) {
	case *ingestMixed:
		var hs []float64
		for _, a := range p.appends {
			hs = append(hs, float64(a.host)/1e6)
		}
		return []workloadMetric{{"append_host_p50_ms", "ms", median(hs)}}
	case *zipfServe:
		return []workloadMetric{{"slo_miss_frac", "ratio", w.sloMissFrac(p)}, {"recall_at_k", "ratio", c.recall}}
	case *paperScale:
		_, _, gm := w.fidelity(p)
		return []workloadMetric{{"paper_factor", "x", gm}}
	}
	return nil
}

// sloMissFrac is the share of the prefix's submitted queries that were
// shed, failed, or answered past their tenant's SLO on the simulated clock.
func (b *zipfServe) sloMissFrac(p *phase) float64 {
	miss := 0
	for _, r := range p.recs[:p.prefix] {
		if r.res == nil || r.err != nil || r.res.Latency > zipfTenants[r.tenant].slo {
			miss++
		}
	}
	return float64(miss) / float64(p.prefix)
}

// fidelity compares each app's simulated channel-level query latency with
// the repository's GPU+SSD baseline (exp.BaselineScan) and the paper's
// reported Table 4 speedup (exp.PaperTable4). The factor is the ratio of the
// two speedups taken ≥ 1, so 1.0 matches the paper; gm is the geometric mean
// over the apps. The model is validated only against these reported numbers.
func (b *paperScale) fidelity(p *phase) (simMs, factor []float64, gm float64) {
	n := len(b.apps)
	simMs = make([]float64, n)
	factor = make([]float64, n)
	for _, r := range p.recs[:p.prefix] {
		if a := r.input % n; r.res != nil && simMs[a] == 0 {
			simMs[a] = r.res.Latency.Seconds() * 1e3
		}
	}
	var logSum float64
	for a, app := range b.apps {
		baseSec, _ := exp.BaselineScan(app, baseline.DefaultConfig(), b.specs[a].Features)
		speedup := baseSec / (simMs[a] / 1e3)
		ratio := speedup / exp.PaperTable4[app.Name][accel.LevelChannel][0]
		factor[a] = math.Max(ratio, 1/ratio)
		logSum += math.Log(factor[a])
	}
	return simMs, factor, math.Exp(logSum / float64(n))
}

// tracedRun measures the per-layer metrics: an untraced timed phase for the
// reference host throughput, then a fresh setup and timed phase with spans
// around every engine call, a CPU profile and runtime counters, then direct
// timing of the workload's kernels.
func tracedRun(name string, seed int64, budget time.Duration, out string) (*result, error) {
	b, err := newBench(name, seed)
	if err != nil {
		return nil, err
	}
	if err := b.setup(nil); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	pu, err := b.drive(budget/2, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newSpanLog()
	if err := b.setup(tr); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	g0 := readGoCounters()
	pt, err := b.drive(budget/2, tr)
	g1 := readGoCounters()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := writeArtifacts(out, fmt.Sprintf("%s-%d", name, seed), tr, prof.Bytes()); err != nil {
		return nil, err
	}
	cu, ct := check(b, pu), check(b, pt)
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	m, na := layerMetrics(b, pu, pt, ct, tr)
	for _, l := range append(append([]string{}, cpuLayers...), "runtime", "other") {
		m["cpu."+l] = shares[l]
	}
	gflops, gops := kernelRates(b.nets(), 100*time.Millisecond)
	m["tensor.gemm_gflops"], m["tensor.gemm_int8_gops"] = gflops, gops
	m["nn.score_ns_per_feature"] = scoreNsPerFeature(b.nets(), 100*time.Millisecond)
	served := float64(pt.served())
	m["go.allocs_per_query"] = (g1.allocs - g0.allocs) / served
	m["go.alloc_bytes_per_query"] = (g1.allocBytes - g0.allocBytes) / served
	if d := g1.totalCPU - g0.totalCPU; d > 0 {
		m["go.gc_cpu_frac"] = (g1.gcCPU - g0.gcCPU) / d
	}
	m["trace.overhead_frac"] = 1 - (served/pt.wall.Seconds())/(float64(pu.served())/pu.wall.Seconds())

	fmt.Printf("workload %s  seed %d  traced run: untraced %.2f s / %d queries, traced %.2f s / %d queries, %d profile samples\n",
		name, seed, pu.wall.Seconds(), len(pu.recs), pt.wall.Seconds(), len(pt.recs), samples)
	res := &result{
		Correct:   cu.failed+ct.failed == 0,
		Attempted: cu.attempted + ct.attempted,
		Failed:    cu.failed + ct.failed,
		Metrics:   map[string]metric{},
	}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			reason := na[l.name]
			if reason == "" {
				reason = "not exercised by this workload"
			}
			fmt.Printf("  %-34s n/a (%s); reported as 0\n", l.name, reason)
			v = 0
		} else {
			fmt.Printf("  %-34s %14.6f %s\n", l.name, v, l.unit)
		}
		res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics that come from the engine's
// own results and counters (pt: traced phase, pu: untraced phase) and the
// spans; na gives the reason for metrics that do not apply.
func layerMetrics(b bench, pu, pt *phase, ct checked, tr *spanLog) (map[string]float64, map[string]string) {
	m := map[string]float64{}
	na := map[string]string{}
	spans := tr.stats()
	ms := func(span string) (float64, bool) {
		s, ok := spans[span]
		if !ok {
			return 0, false
		}
		return float64(s.mean()) / 1e6, true
	}
	if v, ok := ms("core.Query"); ok {
		m["core.query_ms"] = v
	}
	if v, ok := ms("core.GetResults"); ok {
		m["core.get_results_us"] = v * 1e3
	}
	if v, ok := ms("core.AppendDB"); ok {
		m["core.append_ms"] = v
	}
	var pump spanStat
	for _, n := range []string{"core.Server.Pump", "core.Server.AdvanceTo", "core.Server.Flush"} {
		pump.n += spans[n].n
		pump.total += spans[n].total
	}
	if pump.n > 0 {
		m["core.serve_pump_ms"] = float64(pump.mean()) / 1e6
	}
	for span, key := range map[string]string{"core.WriteDB": "core.writedb_s", "core.LoadModel": "core.loadmodel_s", "core.SetQC": "core.setqc_s"} {
		if s, ok := spans[span]; ok {
			m[key] = s.total.Seconds()
		}
	}
	if _, ok := b.(*paperScale); ok {
		na["core.writedb_s"] = "databases are declared (DeclareDB), not written"
	}

	// Simulated-side metrics come from the traced phase's fixed prefix, so
	// they repeat exactly for a seed.
	results := pt.prefixResults()
	nq := float64(len(results))
	stageSum := map[string]float64{}
	var scanned, checkedStripes, skipped float64
	var energy [3]float64
	for _, r := range results {
		for _, s := range r.Stages {
			stageSum[s.Name] += s.Dur.Microseconds()
		}
		scanned += float64(r.FeaturesScanned)
		checkedStripes += float64(r.Prune.StripesChecked)
		skipped += float64(r.Prune.FeaturesSkipped)
		energy[0] += r.Energy.ComputeJ * 1e6
		energy[1] += r.Energy.MemoryJ * 1e6
		energy[2] += r.Energy.FlashJ * 1e6
	}
	for _, s := range stageNames {
		if v, ok := stageSum[s]; ok {
			m["stage."+s+"_us"] = v / nq
		} else {
			na["stage."+s+"_us"] = "no query of the prefix has this stage"
		}
	}
	sv := simStats(pt)
	m["sim.qps"], m["sim.uj_per_query"] = sv.qps, sv.energyUJ
	m["sim.p50_us"], m["sim.p90_us"] = quantile(sv.lat, 50), quantile(sv.lat, 90)
	m["core.features_scanned_per_query"] = scanned / nq
	m["energy.compute_uj"], m["energy.memory_uj"], m["energy.flash_uj"] = energy[0]/nq, energy[1]/nq, energy[2]/nq
	m["flash.page_reads_per_query"] = float64(pt.flashPrefix.PageReads-pt.flashStart.PageReads) / nq
	m["flash.bus_bytes_per_query"] = float64(pt.flashPrefix.BusBytes-pt.flashStart.BusBytes) / nq

	c := pt.snap.Counters
	switch w := b.(type) {
	case *zipfServe:
		batches := float64(c["serve_batches"])
		m["core.shared_scans_per_query"] = float64(c["core_shared_scans"]) / float64(pt.prefixServed)
		m["core.serve_batch_mean"] = float64(pt.prefixServed) / batches
		m["core.serve_deadline_cut_frac"] = float64(c["serve_deadline_cuts"]) / batches
		var shed int64
		for _, t := range pt.tenants {
			shed += t.Shed
		}
		m["core.serve_shed"] = float64(shed)
		m["core.serve_slo_miss_frac"] = w.sloMissFrac(pt)
		lookups := float64(c["qcache_lookups"])
		m["qcache.hit_rate"] = float64(c["qcache_hits"]) / lookups
		m["qcache.comparisons_per_lookup"] = float64(c["qcache_comparisons"]) / lookups
		m["qcache.evictions"] = float64(c["qcache_evictions"])
		m["qcache.admission_rejects"] = float64(c["qcache_admission_rejects"])
		m["qcache.recall_at_k"] = ct.recall
		h := pt.hist
		m["qhist.records"], m["qhist.mines"] = float64(h.Records), float64(h.Mines)
		m["qhist.hot_bytes_per_record"] = float64(h.HotBytes) / float64(h.Records)
		m["qhist.cold_bytes_per_record"] = float64(h.ColdBytes) / float64(h.Records)
	case *ingestMixed:
		m["prune.stripes_checked_per_query"] = checkedStripes / nq
		m["prune.skip_frac"] = skipped / (scanned + skipped)
		var hs []float64
		var programs, simUs float64
		for _, a := range pu.appends {
			hs = append(hs, float64(a.host)/1e6)
		}
		for _, a := range pt.appends[:pt.prefixAppends] {
			programs += float64(a.programs)
			simUs += a.simDur.Microseconds()
		}
		m["core.append_host_p50_ms"] = median(hs)
		m["flash.page_programs_per_append"] = programs / float64(pt.prefixAppends)
		m["ftl.append_sim_us"] = simUs / float64(pt.prefixAppends)
	case *paperScale:
		simMs, factor, gm := w.fidelity(pt)
		for a, app := range w.apps {
			m["accel.sim_ms."+app.Name] = simMs[a]
			m["accel.paper_factor."+app.Name] = factor[a]
		}
		m["accel.paper_factor"] = gm
		var hostUs float64
		for _, r := range pu.recs {
			hostUs += float64(r.host) / 1e3
		}
		m["sim.host_us_per_page_read"] = hostUs / float64(pu.flashEnd.PageReads-pu.flashStart.PageReads)
	}
	for _, k := range []string{"core.shared_scans_per_query", "core.serve_batch_mean", "core.serve_deadline_cut_frac",
		"core.serve_shed", "core.serve_slo_miss_frac", "core.serve_pump_ms"} {
		na[k] = "no serving tier in this workload"
	}
	for _, k := range []string{"qcache.hit_rate", "qcache.comparisons_per_lookup", "qcache.evictions",
		"qcache.admission_rejects", "qcache.recall_at_k", "core.setqc_s"} {
		na[k] = "no query cache in this workload"
	}
	for _, k := range []string{"qhist.records", "qhist.mines", "qhist.hot_bytes_per_record", "qhist.cold_bytes_per_record"} {
		na[k] = "query history is off in this workload"
	}
	for _, k := range []string{"prune.stripes_checked_per_query", "prune.skip_frac"} {
		na[k] = "pruning is off in this workload"
	}
	for _, k := range []string{"core.append_ms", "core.append_host_p50_ms", "flash.page_programs_per_append", "ftl.append_sim_us"} {
		na[k] = "no appends in this workload"
	}
	for _, k := range []string{"accel.paper_factor", "sim.host_us_per_page_read"} {
		na[k] = "paper_scale only"
	}
	return m, na
}

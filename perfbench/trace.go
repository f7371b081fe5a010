package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// spanLog records host-clock spans around every public call the benchmark
// makes into the engine. A nil *spanLog records nothing, which is how the
// untraced run measures end-to-end metrics with tracing off.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, start: time.Since(l.t0)})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].end = time.Since(l.t0)
}

// call wraps fn in a span.
func (l *spanLog) call(name string, parent int, fn func()) {
	i := l.begin(name, parent)
	fn()
	l.end(i)
}

// spanStat is one span name's call count and total duration.
type spanStat struct {
	n     int
	total time.Duration
}

func (s spanStat) mean() time.Duration { return s.total / time.Duration(s.n) }

// stats totals the spans by name.
func (l *spanLog) stats() map[string]spanStat {
	out := map[string]spanStat{}
	if l == nil {
		return out
	}
	for _, s := range l.spans {
		st := out[s.name]
		st.n++
		st.total += s.end - s.start
		out[s.name] = st
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (one lane per
// nesting depth), for chrome://tracing or Perfetto.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		depth := 0
		for p := s.parent; p >= 0; p = l.spans[p].parent {
			depth++
		}
		events = append(events, event{Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: depth})
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuLayers are the repository's modules the CPU profile is split over.
var cpuLayers = []string{"tensor", "nn", "topk", "core", "qcache", "qhist", "sim",
	"accel", "flash", "ftl", "ssd", "systolic", "energy"}

// layerOf maps a profiled function name to a layer: a repository module,
// "runtime" (allocation, GC, scheduler) or "" for anything else.
func layerOf(fn string) string {
	// The package path ends at the first "." after its last "/"; type
	// arguments and receivers, which may hold paths of their own, come later.
	pkg := fn
	if k := strings.IndexAny(pkg, "[("); k >= 0 {
		pkg = pkg[:k]
	}
	i := strings.LastIndex(pkg, "/") + 1
	if j := strings.Index(pkg[i:], "."); j >= 0 {
		pkg = pkg[:i+j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range cpuLayers {
			if rest == l {
				return l
			}
		}
	}
	return ""
}

// cpuShares decodes a gzipped pprof CPU profile and splits its samples over
// the layers by leaf frame. A leaf in the standard library (math, sort,
// container/heap, sync, ...) is charged to its nearest caller that is a
// layer; samples with no layer on the stack land in "other".
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		sampleLoc [][]uint64
		sampleN   []int64
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = append(locs, pbUints(v, b)...)
				case 2:
					for _, u := range pbUints(v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			sampleLoc = append(sampleLoc, locs)
			sampleN = append(sampleN, vals[0])
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("decode cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for i, locs := range sampleLoc {
		layer := "other"
	stack:
		// Locations run leaf first; within one, inlined frames run innermost first.
		for _, loc := range locs {
			for _, fid := range locFuncs[loc] {
				si := funcName[fid]
				if si < 0 || int(si) >= len(strs) {
					continue
				}
				if l := layerOf(strs[si]); l != "" {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += sampleN[i]
		total += sampleN[i]
	}
	shares := map[string]float64{}
	for l, c := range counts {
		shares[l] = float64(c) / float64(total)
	}
	return shares, total, nil
}

// pbFields walks the protobuf fields of msg, passing each field number with
// its varint value (wire types 0, 1, 5) or its bytes (wire type 2).
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		case 2:
			l, n := pbVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints reads a repeated integer field in either packed (b) or unpacked
// (v) encoding.
func pbUints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

// goCounters reads the runtime's cumulative allocation and CPU counters.
type goCounters struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goCounters{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

// timeLoop runs fn until at least d has passed and returns calls and time.
func timeLoop(d time.Duration, fn func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if el := time.Since(start); el >= d {
			return n, el
		}
	}
}

// kernelRates times tensor.Gemm and tensor.GemmInt8 at batch 64 over every
// FC shape of the given SCNs in turn, so each shape weighs in by its share of
// the workload's FLOPs, and returns the median GFLOP/s and GOP/s of three
// timings.
func kernelRates(nets []*nn.Network, per time.Duration) (gflops, gops float64) {
	const m = 64
	rng := rand.New(rand.NewSource(1))
	type shape struct {
		fc         *nn.FC
		a, c       []float32
		a8, w8     []int8
		aScl, wScl []float32
		acc        []int32
	}
	var shapes []shape
	var flops float64
	for _, net := range nets {
		for _, l := range net.Layers {
			fc, ok := l.(*nn.FC)
			if !ok {
				continue
			}
			n, k := fc.Out, fc.In
			s := shape{fc: fc, a: make([]float32, m*k), c: make([]float32, m*n),
				a8: make([]int8, m*k), w8: make([]int8, n*k),
				aScl: make([]float32, m), wScl: make([]float32, n), acc: make([]int32, m*n)}
			for i := range s.a {
				s.a[i] = rng.Float32()*2 - 1
				s.a8[i] = int8(rng.Intn(255) - 127)
			}
			for i := range s.w8 {
				s.w8[i] = int8(rng.Intn(255) - 127)
			}
			for i := range s.aScl {
				s.aScl[i] = 1.0 / 127
			}
			for i := range s.wScl {
				s.wScl[i] = 1.0 / 127
			}
			shapes = append(shapes, s)
			flops += 2 * float64(m*n*k)
		}
	}
	var fp, i8 []float64
	for r := 0; r < 3; r++ {
		calls, el := timeLoop(per, func() {
			for _, s := range shapes {
				tensor.Gemm(s.c, s.a, s.fc.W, s.fc.B, m, s.fc.Out, s.fc.In)
			}
		})
		fp = append(fp, flops*float64(calls)/el.Seconds()/1e9)
		calls, el = timeLoop(per, func() {
			for _, s := range shapes {
				tensor.GemmInt8(s.c, s.acc, s.a8, s.w8, s.fc.B, m, s.fc.Out, s.fc.In, s.aScl, s.wScl)
			}
		})
		i8 = append(i8, flops*float64(calls)/el.Seconds()/1e9)
	}
	return median(fp), median(i8)
}

// scoreNsPerFeature times nn.BatchScorer.ScoreBatch on batches of 64 random
// features and returns the mean over the SCNs of the median ns per scored
// feature of three timings.
func scoreNsPerFeature(nets []*nn.Network, per time.Duration) float64 {
	const b = 64
	rng := rand.New(rand.NewSource(2))
	var total float64
	for _, net := range nets {
		fe := net.FeatureElems()
		vec := func() []float32 {
			v := make([]float32, fe)
			for i := range v {
				v[i] = rng.Float32()*2 - 1
			}
			return v
		}
		q := vec()
		dfvs := make([][]float32, b)
		for i := range dfvs {
			dfvs[i] = vec()
		}
		bs := net.BatchScorer(b)
		scores := make([]float32, b)
		var ns []float64
		for r := 0; r < 3; r++ {
			calls, el := timeLoop(per, func() { bs.ScoreBatch(scores, q, dfvs) })
			ns = append(ns, float64(el.Nanoseconds())/float64(calls*b))
		}
		total += median(ns)
	}
	return total / float64(len(nets))
}

// writeArtifacts stores the traced run's spans and CPU profile under dir.
func writeArtifacts(dir, tag string, spans *spanLog, profile []byte) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := spans.writeChrome(filepath.Join(dir, tag+"-spans.json")); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tag+"-cpu.pprof"), profile, 0o644)
}

package proto

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

const tinyDims = 8

// tinyHandler serves a quantized two-pass engine (so K·margin arithmetic is
// on the query path) over a 40-feature database with a small real SCN and a
// query cache, plus a one-query-per-batch scheduler for queryAsync. It
// returns the valid model and database IDs and a valid QFV payload.
func tinyHandler(tb testing.TB) (h *Handler, model, db uint64, qfv []byte) {
	tb.Helper()
	opts := core.DefaultOptions()
	opts.Quantized = true
	opts.RerankMargin = 4
	ds, err := core.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	net := nn.MustNetwork("tiny-scn", tensor.Shape{tinyDims}, nn.CombineHadamard,
		nn.NewFC("fc1", tinyDims, 4, nn.ActReLU),
		nn.NewFC("fc2", 4, 1, nn.ActNone))
	net.InitRandom(5)
	vecs := make([][]float32, 40)
	for i := range vecs {
		vecs[i] = make([]float32, tinyDims)
		for d := range vecs[i] {
			vecs[i][d] = float32((i*7+d*3)%11) - 5
		}
	}
	dbID, err := ds.WriteDB(vecs)
	if err != nil {
		tb.Fatal(err)
	}
	modelID, err := ds.LoadModelNetwork(net)
	if err != nil {
		tb.Fatal(err)
	}
	qcn := nn.MustNetwork("tiny-qcn", tensor.Shape{tinyDims}, nn.CombineHadamard,
		nn.NewFC("qfc", tinyDims, 1, nn.ActSigmoid))
	if err := ds.SetQC(qcn, 1.0, 4, 0.5); err != nil {
		tb.Fatal(err)
	}
	sched := core.NewScheduler(ds, core.SchedulerConfig{BatchSize: 1})
	tb.Cleanup(sched.Close)
	payload, err := EncodeFeatures(vecs[3:4])
	if err != nil {
		tb.Fatal(err)
	}
	return &Handler{DS: ds, Sched: sched}, uint64(modelID), uint64(dbID), payload
}

// TestHandlerRejectsUnknownLevel: a query naming an accelerator level the
// engine does not have completes with StatusInvalidField on both the
// synchronous and the scheduled path instead of panicking the server.
func TestHandlerRejectsUnknownLevel(t *testing.T) {
	h, model, db, qfv := tinyHandler(t)
	for _, op := range []Opcode{OpQuery, OpQueryAsync} {
		cpl := h.Execute(Command{Op: op, Model: model, DB: db, Args: [4]uint64{3, 0, 0, 10}, Payload: qfv})
		if cpl.Status == StatusSuccess && op == OpQueryAsync {
			cpl = h.Execute(Command{Op: OpAwait, Args: [4]uint64{cpl.Value}})
		}
		if cpl.Status != StatusInvalidField {
			t.Errorf("%s with level 9: status %s (%s), want %s", op, cpl.Status, cpl.Detail, StatusInvalidField)
		}
	}
}

// FuzzHandlerQuery drives the query and queryAsync commands over arbitrary
// arguments, IDs and payloads. Every command must complete with a status,
// without panicking: an executed query's results must be retrievable, and
// a scheduled query's ticket must redeem to its results or to the query's
// own StatusInvalidField (the scheduler validates inside the batch). The seeds
// include a huge K (topk used to preallocate K entries per channel) and a K
// whose K·RerankMargin overflows, and an unknown accelerator level.
func FuzzHandlerQuery(f *testing.F) {
	h, model, db, qfv := tinyHandler(f)
	f.Add(false, uint64(3), uint64(0), uint64(0), uint64(0), model, db, qfv)
	f.Add(true, uint64(3), uint64(2), uint64(30), uint64(2), model, db, qfv)
	f.Add(false, uint64(1)<<50, uint64(0), uint64(0), uint64(0), model, db, qfv)
	f.Add(false, uint64(1)<<62, uint64(0), uint64(0), uint64(0), model, db, qfv)
	f.Add(true, uint64(1)<<62, uint64(0), uint64(0), uint64(0), model, db, qfv)
	f.Add(false, uint64(3), uint64(0), uint64(0), uint64(10), model, db, qfv)
	f.Add(true, uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), model, db, qfv)
	f.Add(false, uint64(3), uint64(0), uint64(0), uint64(0), model+1, db+1, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, async bool, k, start, end, level, model, db uint64, payload []byte) {
		op := OpQuery
		if async {
			op = OpQueryAsync
		}
		cpl := h.Execute(Command{Op: op, Model: model, DB: db, Args: [4]uint64{k, start, end, level}, Payload: payload})
		if cpl.Status != StatusSuccess {
			return
		}
		if async {
			if got := h.Execute(Command{Op: OpAwait, Args: [4]uint64{cpl.Value}}); got.Status != StatusSuccess && got.Status != StatusInvalidField {
				t.Fatalf("await of ticket %d: %s (%s)", cpl.Value, got.Status, got.Detail)
			}
			return
		}
		if got := h.Execute(Command{Op: OpGetResults, Args: [4]uint64{cpl.Value}}); got.Status != StatusSuccess {
			t.Fatalf("getResults of query %d: %s (%s)", cpl.Value, got.Status, got.Detail)
		}
	})
}

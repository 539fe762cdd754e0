package dfg

import (
	"time"

	"dfg/internal/obs"
	"dfg/internal/perfdb"
	"dfg/internal/strategy"
)

// SetPerfRecorder attaches (or with nil detaches) a continuous-profiling
// recorder: every evaluation deposits one perfdb.EvalRecord — identity,
// stage timings, device-traffic counts, recovery flags — into it. The
// recorder is concurrency-safe and may be shared by a whole pool of
// engines; derived engine views (WithOptLevel, WithStrategy) inherit it.
// Like Instrument, call before the engine is used.
func (e *Engine) SetPerfRecorder(r *perfdb.Recorder) {
	e.perf = r
}

// route is where one evaluation ran, as its perf record reports it:
// the tier that executed and, when recovery is armed, the retries and
// fallback that got it there. The zero value is a failed run that never
// left its rung.
type route struct {
	resolved string // the tiered plan's chosen tier, else the rung's label; "" on failure
	retries  int
	degraded string // rung a fallback landed on ("" if none)
	lost     bool   // a device loss sent the run down the ladder
}

// recordEval builds and deposits the evaluation's perf record from what
// the evaluation holds, its context too, for a run that ended at end;
// res is nil on failure. Its times are the trace's boundaries: the
// queue wait is the queue-wait stage, and TotalNS runs from the run's
// start (serve's pickup) to the end of its last stage.
func (e *Engine) recordEval(j job, rt route, res *Result, err error, bind strategy.Bindings, end time.Time) {
	sp, wait := obs.FromContext(bind.Ctx)
	rec := perfdb.EvalRecord{
		UnixNS:      end.UnixNano(),
		Trace:       sp.TraceID(),
		Fingerprint: j.short,
		Strategy:    j.label,
		Resolved:    rt.resolved,
		Opt:         e.lvl.String(),
		Device:      e.env.Device().Name(),
		N:           bind.N,
		Batch:       j.batch,
		QueueWaitNS: int64(wait),
		PlanNS:      int64(j.planned),
		TotalNS:     end.Sub(j.t0).Nanoseconds(),
		Retries:     rt.retries,
		Degraded:    rt.degraded,
		DeviceLost:  rt.lost,
	}
	if res != nil {
		rec.ModeledUploadNS = res.Profile.WriteTime.Nanoseconds()
		rec.ModeledKernelNS = res.Profile.KernelTime.Nanoseconds()
		rec.ModeledDownloadNS = res.Profile.ReadTime.Nanoseconds()
		rec.Writes = res.Profile.Writes
		rec.Reads = res.Profile.Reads
		rec.Kernels = res.Profile.Kernels
		rec.WriteBytes = res.Profile.WriteBytes
		rec.ReadBytes = res.Profile.ReadBytes
		rec.PeakBytes = res.PeakDeviceBytes
	}
	if err != nil {
		rec.Err = err.Error()
	}
	e.perf.Record(rec)
}

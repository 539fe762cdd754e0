package dfg

import (
	"time"

	"dfg/internal/compile"
	"dfg/internal/obs"
	"dfg/internal/perfdb"
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

// NoteQueueWait stamps the queue wait the *next* evaluation's perf
// record should carry — the serving layer measures how long a request
// sat in the queue before its worker picked it up, which the engine
// cannot see. The pending value is consumed (and reset) by the next
// recorded evaluation.
func (e *Engine) NoteQueueWait(d time.Duration) {
	if e.perf != nil {
		e.pendingWait = d
	}
}

// clock returns time.Now when the engine is observed (metrics registry
// or perf recorder attached) and the zero time otherwise, so the
// uninstrumented hot path takes no clock readings.
func (e *Engine) clock() time.Time {
	if e.reg != nil || e.perf != nil {
		return time.Now()
	}
	return time.Time{}
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
// the evaluation already holds; res is nil on failure.
func (e *Engine) recordEval(j job, rt route, res *Result, err error, n int, sp *obs.Span, t0 time.Time) {
	now := time.Now()
	rec := perfdb.EvalRecord{
		UnixNS:      now.UnixNano(),
		TraceID:     sp.ID(),
		Fingerprint: compile.ShortKey(j.fp),
		Strategy:    j.label,
		Resolved:    rt.resolved,
		Opt:         e.lvl.String(),
		Device:      e.env.Device().Name(),
		N:           n,
		Batch:       j.batch,
		QueueWaitNS: int64(e.pendingWait),
		PlanNS:      int64(j.planned),
		TotalNS:     now.Sub(t0).Nanoseconds(),
		Retries:     rt.retries,
		Degraded:    rt.degraded,
		DeviceLost:  rt.lost,
	}
	e.pendingWait = 0
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

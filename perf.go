package dfg

import (
	"time"

	"dfg/internal/compile"
	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/perfdb"
)

// SetPerfRecorder attaches (or with nil detaches) a continuous-profiling
// recorder: every evaluation deposits one perfdb.EvalRecord — identity,
// stage timings, device-traffic counts, arena deltas, recovery flags —
// into it. The recorder is concurrency-safe and may be shared by a whole
// pool of engines; derived engine views (WithOptLevel, WithStrategy)
// inherit it. Like Instrument, call before the engine is used.
func (e *Engine) SetPerfRecorder(r *perfdb.Recorder) {
	e.perf = r
}

// PerfRecorder returns the attached recorder (nil if none).
func (e *Engine) PerfRecorder() *perfdb.Recorder { return e.perf }

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

// evalCapture accumulates one evaluation's recovery trajectory across
// the retry/fallback loop, so the perf record is per-evaluation, not
// per-attempt. Allocated only when a recorder is attached. Methods are
// nil-safe so the recovery loop calls them unconditionally.
type evalCapture struct {
	entry      string // ladder label the evaluation entered with
	resolved   string // what actually executed (set by the final attempt)
	retries    int
	degraded   string // rung a fallback landed on ("" if none)
	deviceLost bool
}

func (c *evalCapture) setResolved(label string) {
	if c != nil {
		c.resolved = label
	}
}

func (c *evalCapture) noteRetry() {
	if c != nil {
		c.retries++
	}
}

func (c *evalCapture) noteFallback(to string, viaLost bool) {
	if c != nil {
		c.degraded = to
		if viaLost {
			c.deviceLost = true
		}
	}
}

// recordEval builds and deposits the evaluation's perf record.
// arenaBefore holds the engine's arena counters snapshotted at entry;
// res is nil on failure.
func (e *Engine) recordEval(c *evalCapture, res *Result, err error, j job, n int,
	sp *obs.Span, t0 time.Time, arenaBefore ocl.ArenaStats) {
	after := e.ArenaStats()
	rec := perfdb.EvalRecord{
		UnixNS:         time.Now().UnixNano(),
		TraceID:        sp.ID(),
		Fingerprint:    compile.ShortKey(j.fp),
		Strategy:       c.entry,
		Resolved:       c.resolved,
		Opt:            e.lvl.String(),
		Device:         e.env.Device().Name(),
		N:              n,
		Batch:          j.batch,
		QueueWaitNS:    int64(e.pendingWait),
		PlanNS:         int64(e.pendingPlan),
		TotalNS:        time.Since(t0).Nanoseconds(),
		Allocs:         after.Allocated - arenaBefore.Allocated,
		Reused:         after.Reused - arenaBefore.Reused,
		Uploads:        after.Uploads - arenaBefore.Uploads,
		UploadsSkipped: after.UploadsSkipped - arenaBefore.UploadsSkipped,
		Retries:        c.retries,
		Degraded:       c.degraded,
		DeviceLost:     c.deviceLost,
	}
	e.pendingWait, e.pendingPlan = 0, 0
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

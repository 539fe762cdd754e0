// Package perfdb is the repository's continuous-profiling substrate: a
// durable, queryable record of its own performance. Every evaluation an
// instrumented engine runs deposits one compact EvalRecord — identity
// (fingerprint, strategy, the *resolved* execution tier, optimisation
// level, size, device class), the wall-clock stage timings (queue wait,
// plan, total) beside the modeled device times (upload, kernel,
// download), device-traffic counts and the fault-recovery flags — into
// a lock-cheap sharded ring buffer (Recorder). A record is built from
// what the evaluation already holds; pool-wide arena activity is
// /metrics' dfg_arena_* series, not a per-record field. Snapshots flush
// as schema-versioned JSONL stamped with the build and host identity
// (Meta), which says where a snapshot came from. A record's trace_id
// resolves on the serve layer's /trace/{id}.
//
// WriteFlight is the postmortem dump a serve pool writes on a
// circuit-breaker trip or worker panic — the tracer's recent span trees
// plus the recorder's most recent records.
//
// Counts are gated as goldens (internal/metrics/testdata), not by
// comparing snapshots; wall-clock comparison is benchmark/'s job.
//
// The package deliberately depends only on internal/obs (for span
// dumps): dfg, serve and the benchmarks all import it, so it must sit at
// the bottom of the dependency order.
package perfdb

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"dfg/internal/obs"
)

// Schema identifies the perf-database record format. Bump the version on
// any incompatible field change; readers reject schemas they don't know.
// v2 added the per-record batch size (EvalRecord.Batch); v3 renamed the
// modeled device times to modeled_*_ns; v4 dropped the per-record arena
// deltas (allocs, reused, uploads, uploads_skipped).
const Schema = "dfg.perfdb/v4"

// EvalRecord is one evaluation's compact performance record. Durations
// are nanoseconds: QueueWaitNS, PlanNS and TotalNS are host wall clock,
// the Modeled* times come from the run's simulated ocl.Profile.
type EvalRecord struct {
	// UnixNS timestamps the record: the end of the evaluation's run.
	UnixNS int64 `json:"t"`
	// TraceID links the record to a retained span tree, when tracing was
	// on for the request ("" otherwise). A recorded evaluation carries
	// the number (Trace); Snapshot renders it here.
	TraceID string      `json:"trace_id,omitempty"`
	Trace   obs.TraceID `json:"-"`
	// Fingerprint is the short compile-cache fingerprint of the
	// expression (with its definitions and opt level folded in).
	Fingerprint string `json:"fp"`
	// Strategy is the strategy the evaluation entered with (the plan
	// cache name, e.g. "tiered@4096"); Resolved is what actually ran —
	// the tiered strategy's chosen tier, or the degradation ladder's
	// landing rung.
	Strategy string `json:"strategy"`
	Resolved string `json:"resolved"`
	// Opt is the optimisation level ("paper" or "O2").
	Opt string `json:"opt"`
	// Device names the simulated device class.
	Device string `json:"device"`
	// N is the evaluation's element count (the kernel ND-range).
	N int `json:"n"`
	// Batch is the number of member expressions merged into the
	// super-network this evaluation executed (schema v2). 0 means an
	// unbatched solo evaluation — including batches of one, which take
	// the solo fast path.
	Batch int `json:"batch,omitempty"`

	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	// PlanNS covers compile+plan for the call (0 on warm prepared evals,
	// where planning happened at Prepare time).
	PlanNS            int64 `json:"plan_ns,omitempty"`
	ModeledUploadNS   int64 `json:"modeled_upload_ns,omitempty"`
	ModeledKernelNS   int64 `json:"modeled_kernel_ns,omitempty"`
	ModeledDownloadNS int64 `json:"modeled_download_ns,omitempty"`
	TotalNS           int64 `json:"total_ns"`

	Writes     int   `json:"writes"`
	Reads      int   `json:"reads"`
	Kernels    int   `json:"kernels"`
	WriteBytes int64 `json:"write_bytes,omitempty"`
	ReadBytes  int64 `json:"read_bytes,omitempty"`
	PeakBytes  int64 `json:"peak_bytes,omitempty"`

	// Recovery flags: transient retries burned, the ladder rung a
	// degraded run landed on (""), whether the device was lost, and the
	// final error ("" on success).
	Retries    int    `json:"retries,omitempty"`
	Degraded   string `json:"degraded,omitempty"`
	DeviceLost bool   `json:"device_lost,omitempty"`
	Err        string `json:"err,omitempty"`
}

// Meta stamps a snapshot or flight dump with the build and host that
// produced it.
type Meta struct {
	Schema    string `json:"schema"`
	Kind      string `json:"kind"` // "meta" (the JSONL header line)
	GitRev    string `json:"git_rev"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	NumCPU    int    `json:"num_cpu"`
	Host      string `json:"host"`
	// Device names the simulated device class the snapshot's records ran
	// on, when a single class applies ("" for mixed snapshots).
	Device        string `json:"device,omitempty"`
	CreatedUnixNS int64  `json:"created_ns"`
}

// CollectMeta gathers the current build and host identity. device may be
// "" when the snapshot mixes device classes.
func CollectMeta(device string) Meta {
	host, _ := os.Hostname()
	return Meta{
		Schema:        Schema,
		Kind:          "meta",
		GitRev:        GitRev(),
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Host:          host,
		Device:        device,
		CreatedUnixNS: time.Now().UnixNano(),
	}
}

// GitRev resolves the git revision the binary was built from: the VCS
// stamp Go embeds in module builds when available, else the checked-out
// HEAD read straight from the .git directory (go run and test binaries
// are not always stamped), else "unknown".
func GitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if rev := gitRevFromDir(); rev != "" {
		return rev
	}
	return "unknown"
}

// gitRevFromDir reads HEAD from the enclosing .git directory, following
// one level of symbolic ref. Best effort: any failure returns "".
func gitRevFromDir() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			s := strings.TrimSpace(string(head))
			if ref, ok := strings.CutPrefix(s, "ref: "); ok {
				if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
					return strings.TrimSpace(string(b))
				}
				return ""
			}
			return s
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

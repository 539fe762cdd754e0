package ocl

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Device is a simulated OpenCL device. Kernels enqueued on the device
// really execute, data-parallel across a host goroutine pool; the
// device's spec supplies the cost model used for profiled (modeled)
// timings and the memory capacity used for allocation failures.
type Device struct {
	spec DeviceSpec

	// workers is the most chunks a launch splits into, and grain the
	// smallest chunk of an ND-range worth its own (minParallelGrain).
	// They are host execution details; modeled timings use spec fields.
	workers, grain int
}

// NewDevice constructs a device from its spec. It panics if the spec is
// invalid: specs are compiled-in constants, so an invalid one is a
// programming error, not a runtime condition.
func NewDevice(spec DeviceSpec) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	w := runtime.GOMAXPROCS(0)
	if w > spec.ComputeUnits {
		// A device never runs wider than its compute units; this keeps
		// CPU-vs-GPU wall-time comparisons honest on large hosts.
		w = spec.ComputeUnits
	}
	if w < 1 {
		w = 1
	}
	return &Device{spec: spec, workers: w, grain: minParallelGrain}
}

// Spec returns a copy of the device description.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Name returns the device name, e.g. "NVIDIA Tesla M2050".
func (d *Device) Name() string { return d.spec.Name }

// Type returns whether the device is a CPU or GPU device.
func (d *Device) Type() DeviceType { return d.spec.Type }

// GlobalMemSize returns the device's global memory capacity in bytes.
func (d *Device) GlobalMemSize() int64 { return d.spec.GlobalMemSize }

// minParallelGrain is the smallest per-worker slice of an ND-range worth
// a chunk of its own; below it, fan-out overhead dominates.
const minParallelGrain = 4096

// execute runs one kernel pass over the global work range [0, n), split
// into contiguous chunks across the device's worker pool, and returns the
// real wall time taken. The pass must be safe for concurrent invocation
// on disjoint ranges. A launch that fits one chunk calls the pass on the
// launching goroutine. A wider one hands each chunk but the last to an
// idle chunk worker, runs the last one and any that found no idle
// worker itself, and waits for the rest; it allocates nothing either
// way. A panic in any chunk is re-raised here, on the launching
// goroutine, once every chunk has returned: a panic that unwinds a
// worker's own goroutine ends the process, past every caller's recover.
func (d *Device) execute(n int, pass KernelFunc, views []View) time.Duration {
	start := time.Now()
	if n <= 0 {
		return time.Since(start)
	}
	workers := d.workers
	if max := (n + d.grain - 1) / d.grain; workers > max {
		workers = max
	}
	if workers <= 1 {
		pass(0, n, views)
		return time.Since(start)
	}
	startChunkWorkers()
	l := launches.Get().(*launch)
	l.pass, l.views = pass, views
	chunk, handed := (n+workers-1)/workers, false
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		if hi < n {
			l.wg.Add(1)
			select {
			case chunkQueue <- chunkJob{l, lo, hi}:
				handed = true
				continue
			default: // no idle worker
				l.wg.Done()
			}
		} else if handed {
			// The last worker handed a chunk waits in this P's next
			// slot, which an idle P steals from only after a pause
			// (≈ 50 µs per launch on a two-vCPU VM). Yielding runs it
			// on this P at once and queues the launcher globally,
			// where an idle P takes it.
			runtime.Gosched()
		}
		l.run(lo, hi)
	}
	l.wg.Wait()
	p := l.panicked.Swap(nil)
	l.pass, l.views = nil, nil
	launches.Put(l)
	if p != nil {
		panic(p)
	}
	return time.Since(start)
}

// launch is the shared state of one fanned-out execute: the pass and
// its arguments, the barrier and the first panic any chunk raised.
// Launches are pooled, so a fan-out allocates none.
type launch struct {
	pass     KernelFunc
	views    []View
	wg       sync.WaitGroup
	panicked atomic.Pointer[chunkPanic]
}

var launches = sync.Pool{New: func() any { return new(launch) }}

// run executes one chunk, keeping the launch's first panic.
func (l *launch) run(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			l.panicked.CompareAndSwap(nil, &chunkPanic{value: r, stack: debug.Stack()})
		}
	}()
	l.pass(lo, hi, l.views)
}

// chunkJob is one chunk of a launch handed to a chunk worker.
type chunkJob struct {
	l      *launch
	lo, hi int
}

// chunkQueue hands chunks to the package's chunk workers, at most
// GOMAXPROCS−1 goroutines that live as long as the process. It is
// unbuffered, so a chunk is handed over only to a worker that is idle.
var (
	chunkQueue   = make(chan chunkJob)
	chunkWorkers atomic.Int32
)

// startChunkWorkers starts chunk workers up to GOMAXPROCS−1.
func startChunkWorkers() {
	for want := int32(runtime.GOMAXPROCS(0) - 1); ; {
		have := chunkWorkers.Load()
		if have >= want {
			return
		}
		if chunkWorkers.CompareAndSwap(have, have+1) {
			go func() {
				for j := range chunkQueue {
					j.l.run(j.lo, j.hi)
					j.l.wg.Done()
				}
			}()
		}
	}
}

// chunkPanic is the value execute re-panics with: the original panic
// value and the stack of the chunk goroutine that raised it, which the
// launching goroutine's own trace cannot show.
type chunkPanic struct {
	value any
	stack []byte
}

func (p *chunkPanic) Error() string {
	return fmt.Sprintf("%v [recovered from a kernel launch chunk]\n%s", p.value, p.stack)
}

// transferTime models one host<->device transfer of the given size.
func (d *Device) transferTime(bytes int64) time.Duration {
	s := float64(bytes) / d.spec.TransferBandwidth
	return d.spec.TransferLatency + time.Duration(s*float64(time.Second))
}

// kernelTime models one kernel dispatch over n elements with the given
// per-element cost: launch overhead plus a roofline over arithmetic
// throughput and global-memory bandwidth.
func (d *Device) kernelTime(n int, cost Cost) time.Duration {
	flops := cost.Flops * float64(n)
	bytes := (cost.LoadBytes + cost.StoreBytes) * float64(n)
	tArith := flops / (d.spec.GFLOPS * 1e9)
	tMem := bytes / d.spec.MemBandwidth
	t := tArith
	if tMem > t {
		t = tMem
	}
	return d.spec.KernelLaunch + time.Duration(t*float64(time.Second))
}

package ocl

import "sync/atomic"

// Cost is the per-element cost metadata of a kernel, used by the device
// cost model to produce profiled timings. Primitive kernels declare their
// cost once; the fusion code generator sums the costs of the primitives
// it fuses (minus the global loads/stores that fusion keeps in
// registers).
type Cost struct {
	// Flops is floating-point operations per output element.
	Flops float64
	// LoadBytes is bytes read from device global memory per element.
	LoadBytes float64
	// StoreBytes is bytes written to device global memory per element.
	StoreBytes float64
}

// Add returns the component-wise sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		Flops:      c.Flops + o.Flops,
		LoadBytes:  c.LoadBytes + o.LoadBytes,
		StoreBytes: c.StoreBytes + o.StoreBytes,
	}
}

// View is a kernel's window onto a device buffer: the raw component data
// plus the element/width shape needed to index vector-typed arrays.
type View struct {
	Data  []float32
	Elems int
	Width int

	// want and stale are set on a view a speculative launch binds
	// before the buffer's residency check has run (see Queue.Run): Data
	// must equal want, bit for bit, wherever the kernel reads it, and
	// stale is the launch's shared flag, raised at the first difference.
	want  []float32
	stale *atomic.Bool
}

// Pending reports whether the view is bound with a residency check the
// kernel must make before it reads the view (Verify).
func (v *View) Pending() bool { return v.stale != nil }

// Verify checks Data[lo:hi] (float32 indices) of a pending view
// against the source it must equal, and reports whether the launch may
// go on: false once any worker has found a difference, in this window
// or another. An empty window only reads the flag. A kernel that
// verifies as it reads (Kernel.Verifies) calls it on every window of a
// pending view before reading that window, so a stale launch stops at
// the first differing block.
func (v *View) Verify(lo, hi int) bool {
	if v.stale.Load() {
		return false
	}
	if lo < hi && !sameBits(v.Data[lo:hi], v.want[lo:hi]) {
		v.stale.Store(true)
		return false
	}
	return true
}

// KernelFunc is the executable body of a kernel. It is invoked
// concurrently on disjoint sub-ranges [lo, hi) of the global work size;
// bufs follow the argument order of the launch, and scalars carry the
// kernel's non-buffer arguments (compile-time constants in the fusion
// strategy arrive through source instead and are absent here).
type KernelFunc func(lo, hi int, bufs []View, scalars []float64)

// Kernel pairs an OpenCL C source string with the executable equivalent
// that the simulated device runs. The source is what a real OpenCL
// runtime would JIT-compile; golden tests pin the generated source of
// fused kernels, and the closure is what produces real results.
type Kernel struct {
	// Name is the kernel's entry-point name, e.g. "kadd" or the
	// generated "kfused_qcrit".
	Name string
	// Source is the OpenCL C source of the kernel. A fused kernel a
	// strategy plan built carries none: codegen renders that text on
	// read (codegen.Program.Render), not per plan.
	Source string
	// NumBufs is the number of buffer arguments the kernel expects; a
	// launch with a different count fails. Zero means "unchecked".
	NumBufs int
	// Cost is the per-element cost used for modeled timings.
	Cost Cost
	// Fn is the executable kernel body.
	Fn KernelFunc
	// Passes optionally splits the body into ordered phases with a
	// device-wide barrier between them, all within ONE kernel dispatch.
	// The fusion generator uses this when a stencil primitive (grad3d)
	// consumes a computed value: the fused kernel first materializes
	// that value to a global scratch buffer, synchronizes, then runs the
	// stencil — the single-kernel, extra-array case of the paper's
	// Figure 2. When Passes is non-empty it replaces Fn.
	Passes []KernelFunc
	// Verifies marks a kernel whose passes verify as they read: before
	// each block, every pass calls View.Verify on the window the block
	// reads of each pending view, and stops once it returns false. Such
	// a launch may run speculatively over resident sources whose
	// residency check is still pending. Only codegen.Build sets it.
	Verifies bool
}

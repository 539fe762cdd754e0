package ocl

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
}

// Need is how many float32s a kernel argument must hold for a launch
// over n elements: PerN per element, and at least Fixed whatever n (a
// dims descriptor has only its first three elements read).
type Need struct{ PerN, Fixed int }

// Of returns the float32s a launch over n elements reads.
func (d Need) Of(n int) int { return max(n*d.PerN, d.Fixed) }

// KernelFunc is one pass of a kernel's executable body. It is invoked
// concurrently on disjoint sub-ranges [lo, hi) of the global work size;
// bufs follow the argument order of the launch. A kernel takes no
// scalar arguments: constants are compiled into its body.
type KernelFunc func(lo, hi int, bufs []View)

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
	// Needs holds each buffer argument's length rule; a launch whose
	// buffer holds fewer float32s fails. Nil means "unchecked".
	Needs []Need
	// Cost is the per-element cost used for modeled timings.
	Cost Cost
	// Passes is the executable body: one or more ordered phases with a
	// device-wide barrier between them, all within ONE kernel dispatch.
	// The fusion generator uses several when a stencil primitive
	// (grad3d) consumes a computed value: the fused kernel first
	// materializes that value to a global scratch buffer, synchronizes,
	// then runs the stencil — the single-kernel, extra-array case of the
	// paper's Figure 2.
	Passes []KernelFunc
}

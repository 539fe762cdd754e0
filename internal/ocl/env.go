package ocl

// Env is the paper's "OpenCL environment interface": a device with one
// context and one profiling in-order queue, categorizing every timing
// event and managing buffer requests so the global-memory high-water mark
// can be reported. Execution strategies run entirely through an Env.
type Env struct {
	dev *Device
	ctx *Context
	q   *Queue
	// pool, when attached, routes buffer allocation through the
	// context's arena: NewBuffer and Upload draw from (and recycle
	// into) the size-class free lists, and UploadResident binds sources
	// to resident slots. Nil for one-shot execution, where per-run
	// allocate/free keeps the paper's memory-profile semantics exact.
	pool *Arena
}

// NewEnv builds an environment on the device.
func NewEnv(dev *Device) *Env {
	ctx := NewContext(dev)
	return &Env{dev: dev, ctx: ctx, q: NewQueue(ctx)}
}

// Device returns the target device.
func (e *Env) Device() *Device { return e.dev }

// Context returns the environment's context.
func (e *Env) Context() *Context { return e.ctx }

// Queue returns the environment's profiling queue.
func (e *Env) Queue() *Queue { return e.q }

// SetPool attaches (or, with nil, detaches) a buffer arena. While a
// pool is attached, NewBuffer and Upload acquire from it instead of
// allocating fresh device memory, so released buffers are reused across
// kernels and executions.
func (e *Env) SetPool(a *Arena) { e.pool = a }

// Pool returns the attached arena (nil when unpooled).
func (e *Env) Pool() *Arena { return e.pool }

// NewBuffer allocates a device buffer (see Context.NewBuffer), drawing
// from the attached arena when one is set.
func (e *Env) NewBuffer(label string, elems, width int) (*Buffer, error) {
	if e.pool != nil {
		return e.pool.Acquire(label, elems, width)
	}
	return e.ctx.NewBuffer(label, elems, width)
}

// Upload allocates a device buffer bound to src, recording the
// host-to-device event (Queue.bind): the buffer aliases src instead of
// copying it until it is released, so src must not change meanwhile,
// and kernels must only read it. On allocation failure no event is
// recorded. With an arena attached the buffer comes from the pool, so
// strategies that re-upload per kernel (roundtrip) stop churning fresh
// allocations; its release drops the alias before the pool hands it out
// again.
func (e *Env) Upload(label string, src []float32, width int) (*Buffer, error) {
	if width < 1 {
		width = 1
	}
	b, err := e.NewBuffer(label, len(src)/width, width)
	if err != nil {
		return nil, err
	}
	// Release on any failed hand-off — including a panic out of the
	// fault point (injected faults can panic), where the caller never
	// sees b and could not release it.
	handed := false
	defer func() {
		if !handed {
			b.Release()
		}
	}()
	if err := e.q.bind(b, src); err != nil {
		return nil, err
	}
	handed = true
	return b, nil
}

// UploadResident uploads a source that should stay device-resident
// across executions. key identifies the resident slot (label is the
// buffer/event label; they differ for tiled windows). Without a pool
// this is a plain Upload; with one, the slot's buffer aliases src until
// it is released, and only the stable array the slot already holds
// skips the transfer (see Arena.UploadResident). stable declares that
// src's backing array is never rewritten.
func (e *Env) UploadResident(key, label string, src []float32, width int, stable bool) (*Buffer, error) {
	if e.pool == nil {
		return e.Upload(label, src, width)
	}
	return e.pool.UploadResident(e.q, key, label, src, width, stable)
}

// Download reads the whole buffer back to the host, recording the
// device-to-host event. The returned slice is the buffer's storage,
// handed over rather than copied: the download must be the buffer's
// last read, and the buffer gets fresh storage when it is next used.
// An uploaded buffer's storage is a host array bound as an input, so it
// is read into a fresh slice: an answer is never an input.
func (e *Env) Download(src *Buffer) ([]float32, error) {
	if !src.host {
		return e.q.take(src)
	}
	dst := make([]float32, src.Elems()*src.Width())
	if _, err := e.q.ReadBuffer(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// Views returns the environment's argument scratch, n zero views long:
// the slice every kernel launch on the environment binds its buffers
// into, lent to a host executor that binds a buffer table without a
// launch. An environment runs one plan at a time, so a warm run binds its
// arguments without allocating. The slice is valid until the next launch
// or Views call.
func (e *Env) Views(n int) []View { return e.q.scratch(n) }

// Run launches the kernel over n elements (see Queue.Run).
func (e *Env) Run(k *Kernel, n int, bufs []*Buffer) error {
	_, err := e.q.Run(k, n, bufs)
	return err
}

// Profile returns the queue's aggregated profile.
func (e *Env) Profile() Profile { return e.q.Profile() }

// PeakBytes returns the context's global-memory high-water mark.
func (e *Env) PeakBytes() int64 { return e.ctx.Peak() }

// Reset clears profiling state and the memory high-water mark. Live
// buffers are unaffected.
func (e *Env) Reset() {
	e.q.Reset()
	e.ctx.ResetPeak()
}

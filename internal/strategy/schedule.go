package strategy

import (
	"fmt"

	"dfg/internal/codegen"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
)

// opCode names what one schedule op does.
type opCode uint8

const (
	opBind     opCode = iota // dev[dst] = live source needs[src], resident under key label (whole, window [at, at+n) once tiled, or dims[count-1])
	opLoad                   // host[dst] = the bound source label (roundtrip)
	opFill                   // host[dst] = n copies of the constant at network position src (roundtrip)
	opPick                   // host[dst] = component at of host[src] (roundtrip's decompose)
	opUpload                 // dev[i] = host[in] for the i-th input in of the node at position src (roundtrip)
	opAlloc                  // dev[dst] = a fresh buffer of n cells, width wide, labelled label
	opLaunch                 // kernels[src] over n cells, its arguments dev[args[at : at+count]]
	opDownload               // host[dst] = dev[src] read back, width wide
	opRelease                // dev[src : src+count] released
	opMake                   // host[dst] = a zeroed whole-mesh array, width wide (streaming's roots)
	opScatter                // host[src]'s interior boxes[at+1] (laid out over boxes[at]) copied into host[dst] (streaming)
	opTile                   // the ops after it run tiled, over n = at cells (streaming)
)

// op is one step of a schedule over numbered device and host slots. It
// runs over n cells: the run's N, or the tile's after an opTile. label
// names the op in its error, and is the buffer or event label of what
// it makes: the schedule's labels[label], or, in a schedule without
// labels, the ID of the network node at position label. An op holds no
// pointer, so a schedule's ops are 24 bytes each in one pointer-free
// array.
type op struct {
	code      opCode
	width     int8
	dst, src  int32
	at, count int32
	label     int32
}

// schedule is a device plan compiled to ops: what it binds, moves,
// launches, reads back and releases, in order. It is immutable, so
// executions share it.
type schedule struct {
	ops       []op
	args      []int32       // every launch's arguments, device slots
	kernels   []*ocl.Kernel // the launches' kernels
	labels    []string      // the ops' labels; nil: node IDs by position
	roots     []int32       // the host slots of the result, in Roots() order
	dev, host int32         // slot counts
	// dims and boxes are streaming's: each tile's dims array, and the
	// whole mesh's extent followed by each tile's extent and interior.
	dims  [][]float32
	boxes []mesh.Extent
}

// identity numbers the first slots; the launches and results that read
// slots in order share it.
var identity = func() (s [64]int32) {
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// firstSlots returns the slots 0 to n-1.
func firstSlots(n int) []int32 {
	if n <= len(identity) {
		return identity[:n:n]
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// maxStackSlots is how many slots of each kind run keeps on its stack,
// so a warm fused evaluation of every paper expression (Q-criterion:
// dims, x, y, z, u, v, w and out) allocates none.
const maxStackSlots = 16

// devicePlan is a device strategy's plan: its schedule, compiled once.
type devicePlan struct {
	planBase
	sched schedule
	prog  *codegen.Program // fusion's and streaming's fused program
}

// Execute runs the plan's schedule.
func (p *devicePlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	if err := p.beginRun(env, bind); err != nil {
		return Result{}, err
	}
	return p.run(&p.sched, env, bind)
}

// label returns the op's label.
func (p *planBase) label(s *schedule, o *op) string {
	if s.labels == nil {
		return p.net.Nodes()[o.label].ID
	}
	return s.labels[o.label]
}

// run is the one executor of every device schedule. It checks the
// binding's context before every launch, wraps an op's error as
// "<strategy>: <label>: ...", and releases every live device slot on
// any exit.
func (p *planBase) run(s *schedule, env *ocl.Env, bind Bindings) (Result, error) {
	var devStack [maxStackSlots]*ocl.Buffer
	var hostStack [maxStackSlots]Source
	dev, host := devStack[:min(s.dev, maxStackSlots)], hostStack[:min(s.host, maxStackSlots)]
	if s.dev > maxStackSlots {
		dev = make([]*ocl.Buffer, s.dev)
	}
	if s.host > maxStackSlots {
		host = make([]Source, s.host)
	}
	defer func() {
		for _, b := range dev {
			if b != nil {
				b.Release()
			}
		}
	}()
	n, tiled := bind.N, false
	for i := range s.ops {
		o := &s.ops[i]
		var err error
		switch o.code {
		case opTile:
			n, tiled = int(o.at), true
		case opBind:
			name := p.needs[o.src].name
			var src Source
			if src, err = bind.source(name); err != nil {
				return Result{}, err
			}
			data, stable := src.Data, bind.stable(src.Data)
			if o.count > 0 {
				data, stable = s.dims[o.count-1], true
			} else if tiled {
				data = data[int(o.at)*src.Width : (int(o.at)+n)*src.Width]
			}
			dev[o.dst], err = env.UploadResident(p.label(s, o), name, data, src.Width, stable)
		case opLoad:
			if host[o.dst], err = bind.source(p.label(s, o)); err != nil {
				return Result{}, err
			}
		case opFill:
			data, v := make([]float32, n), float32(p.net.Nodes()[o.src].Value)
			for j := range data {
				data[j] = v
			}
			host[o.dst] = Source{Data: data, Width: 1}
		case opPick:
			in, data := host[o.src], make([]float32, n)
			for j := range data {
				data[j] = in.Data[j*in.Width+int(o.at)]
			}
			host[o.dst] = Source{Data: data, Width: 1}
		case opUpload:
			nodes := p.net.Nodes()
			for j, in := range nodes[o.src].Inputs {
				if dev[j], err = env.Upload(nodes[in].ID, host[in].Data, host[in].Width); err != nil {
					break
				}
			}
		case opAlloc:
			dev[o.dst], err = env.NewBuffer(p.label(s, o), n, int(o.width))
		case opLaunch:
			if err := bind.canceled(); err != nil {
				return Result{}, err
			}
			var argStack [maxStackSlots]*ocl.Buffer
			args := argStack[:0]
			for _, a := range s.args[o.at : o.at+o.count] {
				args = append(args, dev[a])
			}
			err = env.Run(s.kernels[o.src], n, args)
		case opDownload:
			host[o.dst].Width = int(o.width)
			host[o.dst].Data, err = env.Download(dev[o.src])
		case opRelease:
			for j := o.src; j < o.src+o.count; j++ {
				dev[j].Release()
				dev[j] = nil
			}
		case opMake:
			host[o.dst] = Source{Data: make([]float32, n*int(o.width)), Width: int(o.width)}
		case opScatter:
			err = mesh.CopyBox(host[o.dst].Data, s.boxes[0], host[o.src].Data, s.boxes[o.at], s.boxes[o.at+1], int(o.width))
		}
		if err != nil {
			return Result{}, fmt.Errorf("%s: %s: %w", p.name, p.label(s, o), err)
		}
	}
	first := host[s.roots[0]]
	res := finish(env, first.Data, first.Width)
	if len(s.roots) > 1 {
		res.Roots = make([]Field, len(s.roots))
		for i, r := range s.roots {
			res.Roots[i] = Field(host[r])
		}
	}
	return res, nil
}

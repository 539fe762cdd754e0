package ocl

import (
	"fmt"
	"time"
)

// DeviceType distinguishes the two target architectures evaluated in the
// paper: a multi-core CPU exposed as an OpenCL device, and a discrete GPU.
type DeviceType int

const (
	// CPUDevice models an OpenCL CPU platform (the paper's dual-socket
	// Intel X5660 "Westmere" under the Intel OpenCL runtime).
	CPUDevice DeviceType = iota
	// GPUDevice models a discrete accelerator (the paper's NVIDIA Tesla
	// M2050 under the NVIDIA OpenCL runtime).
	GPUDevice
)

// String returns the OpenCL-style name of the device type.
func (t DeviceType) String() string {
	switch t {
	case CPUDevice:
		return "CPU"
	case GPUDevice:
		return "GPU"
	default:
		return fmt.Sprintf("DeviceType(%d)", int(t))
	}
}

// DeviceSpec is the static description of a simulated OpenCL device: its
// identity, capacity limits, and the parameters of its cost model.
//
// The cost model is intentionally simple — a roofline over arithmetic
// throughput and memory bandwidth plus fixed per-request overheads — but
// it is sufficient to reproduce the orderings the paper reports: fusion <
// staged < roundtrip, GPU faster than CPU whenever the data fits, and
// transfer-dominated runtimes for the roundtrip strategy.
type DeviceSpec struct {
	Name   string
	Vendor string
	Type   DeviceType

	// ComputeUnits is CL_DEVICE_MAX_COMPUTE_UNITS: cores for a CPU
	// device, streaming multiprocessors for a GPU.
	ComputeUnits int
	// ClockMHz is CL_DEVICE_MAX_CLOCK_FREQUENCY.
	ClockMHz int
	// GlobalMemSize is CL_DEVICE_GLOBAL_MEM_SIZE in bytes. Buffer
	// allocations that would exceed it fail, reproducing the paper's
	// failed GPU test cases.
	GlobalMemSize int64
	// MaxAllocSize is CL_DEVICE_MAX_MEM_ALLOC_SIZE in bytes (OpenCL
	// guarantees at least a quarter of global memory).
	MaxAllocSize int64

	// GFLOPS is peak single-precision arithmetic throughput in Gflop/s.
	GFLOPS float64
	// MemBandwidth is device global-memory bandwidth in bytes/s.
	MemBandwidth float64
	// TransferBandwidth is host<->device bandwidth in bytes/s (PCIe for
	// a GPU; effective copy bandwidth for a CPU device).
	TransferBandwidth float64
	// TransferLatency is the fixed overhead of one host<->device
	// transfer request.
	TransferLatency time.Duration
	// KernelLaunch is the fixed overhead of one kernel dispatch.
	KernelLaunch time.Duration
}

// Validate reports a descriptive error if the spec is not usable.
func (s *DeviceSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("ocl: device spec missing name")
	case s.ComputeUnits <= 0:
		return fmt.Errorf("ocl: device %q: compute units must be positive, got %d", s.Name, s.ComputeUnits)
	case s.GlobalMemSize <= 0:
		return fmt.Errorf("ocl: device %q: global memory must be positive, got %d", s.Name, s.GlobalMemSize)
	case s.MaxAllocSize <= 0 || s.MaxAllocSize > s.GlobalMemSize:
		return fmt.Errorf("ocl: device %q: max alloc size %d out of range (0, %d]", s.Name, s.MaxAllocSize, s.GlobalMemSize)
	case s.GFLOPS <= 0 || s.MemBandwidth <= 0 || s.TransferBandwidth <= 0:
		return fmt.Errorf("ocl: device %q: throughputs must be positive", s.Name)
	}
	return nil
}

// Platform is a named collection of devices, mirroring cl_platform_id.
// The test cluster in the paper (LLNL's Edge) exposes both an Intel and
// an NVIDIA platform on every batch node.
type Platform struct {
	Name    string
	Vendor  string
	Version string
	Devices []*Device
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
	gib = int64(1) << 30
)

// XeonX5660Spec describes the paper's dual-socket 2.8 GHz six-core Intel
// X5660 node as a single OpenCL CPU device with 96 GB of host RAM.
//
// memScale divides the device's memory sizes; pass 1 for the paper's
// scale. Experiments in this repository default to memScale 64 together
// with grids scaled by the same factor, which preserves exactly which
// test cases fit (memory formulas are linear in cell count).
func XeonX5660Spec(memScale int64) DeviceSpec {
	if memScale < 1 {
		memScale = 1
	}
	return DeviceSpec{
		Name:          "Intel Xeon X5660",
		Vendor:        "Intel(R) Corporation",
		Type:          CPUDevice,
		ComputeUnits:  12,
		ClockMHz:      2800,
		GlobalMemSize: 96 * gib / memScale,
		MaxAllocSize:  24 * gib / memScale,
		GFLOPS:        134, // 12 cores x 2.8 GHz x 4-wide SP SSE
		MemBandwidth:  30e9,
		// In-host clEnqueueWriteBuffer copies run at roughly one core's
		// memcpy speed — comparable to pinned PCIe gen2, which is why
		// the paper sees the GPU "faster or on-par" even for the
		// transfer-dominated roundtrip strategy.
		TransferBandwidth: 5.5e9,
		TransferLatency:   25 * time.Microsecond,
		KernelLaunch:      40 * time.Microsecond,
	}
}

// TeslaM2050Spec describes the paper's NVIDIA Tesla M2050 GPU: 3 GB of
// GDDR5, 14 SMs, on a dedicated x16 PCIe gen-2 slot.
//
// memScale divides the device's memory sizes (see XeonX5660Spec).
func TeslaM2050Spec(memScale int64) DeviceSpec {
	if memScale < 1 {
		memScale = 1
	}
	return DeviceSpec{
		Name:              "NVIDIA Tesla M2050",
		Vendor:            "NVIDIA Corporation",
		Type:              GPUDevice,
		ComputeUnits:      14,
		ClockMHz:          1150,
		GlobalMemSize:     3 * gib / memScale,
		MaxAllocSize:      3 * gib / 4 / memScale,
		GFLOPS:            1030,
		MemBandwidth:      148e9,
		TransferBandwidth: 5.8e9, // PCIe gen2 x16 effective
		TransferLatency:   15 * time.Microsecond,
		KernelLaunch:      10 * time.Microsecond,
	}
}

// EdgeNodePlatforms returns the two OpenCL platforms of one batch node of
// LLNL's Edge cluster as used in the paper: an Intel platform with one
// CPU device and an NVIDIA platform with two Tesla M2050 GPUs.
func EdgeNodePlatforms(memScale int64) []*Platform {
	cpu := NewDevice(XeonX5660Spec(memScale))
	gpu0 := NewDevice(TeslaM2050Spec(memScale))
	gpu1 := NewDevice(TeslaM2050Spec(memScale))
	return []*Platform{
		{
			Name:    "Intel(R) OpenCL",
			Vendor:  "Intel(R) Corporation",
			Version: "OpenCL 1.1",
			Devices: []*Device{cpu},
		},
		{
			Name:    "NVIDIA CUDA",
			Vendor:  "NVIDIA Corporation",
			Version: "OpenCL 1.1 CUDA 4.2",
			Devices: []*Device{gpu0, gpu1},
		},
	}
}

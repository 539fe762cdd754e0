package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// measurement is one window of a workload with tracing off.
type measurement struct {
	samples   []float64 // per-op wall time, µs, all clients
	failed    int
	elapsed   time.Duration
	heapBytes uint64 // runtime.MemStats.TotalAlloc delta, whole process
	mallocs   uint64 // runtime.MemStats.Mallocs delta, whole process
	gcCycles  uint32
	cpu       time.Duration // process user+system time over the window
}

// clients is how many closed-loop callers drive a workload.
func (sp spec) clients() int {
	if sp.kind == serveOp {
		return serveClients
	}
	return 1
}

// drive runs every client until stop says so. stop is asked before each
// op with the client's op index. It returns each client's per-op times
// in µs and the number of ops whose output was wrong.
func drive(s *session, room int, stop func(i int) bool) (samples [][]float64, failed int) {
	n := s.in.spec.clients()
	samples = make([][]float64, n)
	fails := make([]int, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		samples[c] = make([]float64, 0, room)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop(i); i++ {
				d, ok := s.op(c, i)
				samples[c] = append(samples[c], us(d))
				if !ok {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, f := range fails {
		failed += f
	}
	return samples, failed
}

// warmUp runs the workload's fixed op count — fixed so the warm state is
// the same every run — and returns the op rate per client it saw.
func warmUp(s *session, short bool) (float64, error) {
	sp := s.in.spec
	perClient := sp.warmup / sp.clients()
	if short {
		perClient /= 10
	}
	start := time.Now()
	_, failed := drive(s, perClient, func(i int) bool { return i >= perClient })
	if failed > 0 {
		return 0, fmt.Errorf("%s: %d of %d warm-up ops returned a wrong result", sp.name, failed, perClient*sp.clients())
	}
	return float64(perClient) / time.Since(start).Seconds(), nil
}

// measure runs the workload for exactly window. Sample storage is sized
// from the warm-up rate and allocated before the window opens, so the
// window's allocation counters see the library and the clients'
// requests only.
func measure(s *session, window time.Duration, rate float64) *measurement {
	room := int(rate*window.Seconds()*1.5) + 1024
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(window)
	samples, failed := drive(s, room, func(int) bool { return !time.Now().Before(deadline) })
	m := &measurement{failed: failed, elapsed: time.Since(start), cpu: processCPU() - cpu0}
	runtime.ReadMemStats(&after)
	m.heapBytes = after.TotalAlloc - before.TotalAlloc
	m.mallocs = after.Mallocs - before.Mallocs
	m.gcCycles = after.NumGC - before.NumGC
	for _, c := range samples {
		m.samples = append(m.samples, c...)
	}
	return m
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runEndToEnd produces the five gated metrics of one workload. Set-up
// time comes from fresh child processes run in three batches — before
// the session opens, after warm-up and after the window, this process
// idle each time. Host interference only ever adds time and comes in
// bursts, so each batch is reduced to its quietest child and setup_s is
// the median of the three: a burst that covers a whole batch still
// leaves the median with the other two.
func runEndToEnd(in *inputs, window time.Duration, o options) (*report, error) {
	var setups, quietest []float64
	batch := func() error {
		v, err := setupBatch(o, in.hash)
		if err != nil {
			return err
		}
		setups = append(setups, v...)
		quietest = append(quietest, sortedCopy(v)[0])
		return nil
	}
	if err := batch(); err != nil {
		return nil, err
	}
	s, _, err := open(in)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rate, err := warmUp(s, o.allowShort)
	if err != nil {
		return nil, err
	}
	if err := batch(); err != nil {
		return nil, err
	}
	m := measure(s, window, rate)
	if err := batch(); err != nil {
		return nil, err
	}
	setup := median(quietest)
	min := minSamples
	if o.allowShort {
		min = 1
	}
	low, err := p05(m.samples, min)
	if err != nil {
		return nil, fmt.Errorf("%s: %w (window too short; -allow-short for smoke runs)", in.spec.name, err)
	}
	attempted := len(m.samples)
	ops := float64(attempted)
	rep := &report{
		Correct:   m.failed == 0,
		Attempted: attempted,
		Failed:    m.failed,
		Metrics: map[string]metricValue{
			"setup_s":             {setup, "s"},
			"eval_p05_us":         {low, "us"},
			"heap_bytes_per_eval": {float64(m.heapBytes) / ops, "B"},
			"allocs_per_eval":     {float64(m.mallocs) / ops, "count"},
			"ok_share":            {float64(attempted-m.failed) / ops, "ratio"},
		},
	}

	sorted := sortedCopy(m.samples)
	topQ, topV := topPercentile(sorted)
	fmt.Printf("detail %s: samples=%d eval_p01_us=%.3f eval_p50_us=%.3f eval_p90_us=%.3f eval_p%.6g_us=%.3f evals_per_s=%.2f elements_per_s=%.4g cpu_s_per_eval=%.4g gc_cycles=%d nproc=%d gomaxprocs=%d %s\n",
		in.spec.name, attempted, quantile(sorted, 0.01), quantile(sorted, 0.5), quantile(sorted, 0.9), topQ*100, topV,
		ops/m.elapsed.Seconds(), ops*float64(in.mesh.Cells())/m.elapsed.Seconds(),
		m.cpu.Seconds()/ops, m.gcCycles, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("detail %s: set-up times of %d fresh processes, in order: %.4g\n", in.spec.name, len(setups), setups)
	return rep, nil
}

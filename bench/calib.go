package main

import (
	"fmt"
	"sync"
	"time"
)

// The sandbox this benchmark was sized on is a shared VM whose speed
// moves with its neighbours: the same binary, seed and window has read
// 25-35 % slower for minutes at a time, CPU time per request included.
// Nothing inside the guest shows why, so each run times three fixed
// kernels before and after its measured window and prints them beside
// the numbers — a reader comparing two runs can tell a slower machine
// from a slower program. They are context, never applied to a metric.
//
// Each kernel is one xorshift stream: kernelALU keeps it in registers
// (core clock); kernelChase uses it to walk a buffer where every address
// depends on the previous load, like a graph walk, over 2 MB (L2) and
// 64 MB (last-level cache and memory).

const calIters = 8

var calBufs struct {
	once    sync.Once
	l2, mem [2][]uint64
}

var calSink uint64 // keeps the kernels' results live

func kernelALU(x uint64) uint64 {
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func kernelChase(buf []uint64, x uint64, steps int) uint64 {
	mask := uint64(len(buf) - 1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		x += buf[j]
		buf[j] = x
	}
	return x
}

// calPoint is the median iteration time of each kernel, in ms.
type calPoint struct{ alu, l2, mem float64 }

// calibrate runs the kernels on two threads at once (the workloads use
// both cores) while the daemons idle, about 0.2 s in all.
func calibrate() calPoint {
	calBufs.once.Do(func() {
		for t := range calBufs.l2 {
			calBufs.l2[t] = make([]uint64, 1<<18)
			calBufs.mem[t] = make([]uint64, 1<<23)
			for j := range calBufs.mem[t] {
				calBufs.mem[t][j] = uint64(j) // touch every page before timing
			}
		}
	})
	var (
		wg           sync.WaitGroup
		mu           sync.Mutex
		alu, l2, mem []float64
	)
	for t := range calBufs.l2 {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			x := uint64(88172645463325252 + t)
			timed := func(dst *[]float64, fn func()) {
				start := time.Now()
				fn()
				d := ms(time.Since(start))
				mu.Lock()
				*dst = append(*dst, d)
				mu.Unlock()
			}
			for i := 0; i < calIters; i++ {
				timed(&alu, func() { x = kernelALU(x) })
				timed(&l2, func() { x = kernelChase(calBufs.l2[t], x, 1<<19) })
				timed(&mem, func() { x = kernelChase(calBufs.mem[t], x, 1<<17) })
			}
			mu.Lock()
			calSink += x
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return calPoint{alu: median(alu), l2: median(l2), mem: median(mem)}
}

// machineNote renders the run's machine context: the calibration
// kernels before/after the measured window, the CPU other processes
// took during it, steal, and the benchmark client's own share.
func machineNote(cal0, cal1 calPoint, c0, c1 cpuSnapshot, elapsed time.Duration) string {
	pct := func(sec float64) float64 { return 100 * sec / elapsed.Seconds() }
	others := (c1.busy - c0.busy) - (c1.daemons - c0.daemons) - (c1.self - c0.self)
	return fmt.Sprintf("machine: kernels alu %.2f/%.2f l2 %.2f/%.2f mem %.2f/%.2f ms before/after (quiet: 2.22, 8.3, 17.5); other processes %.1f%% of a core, steal %.1f%%, benchmark client %.1f%%",
		cal0.alu, cal1.alu, cal0.l2, cal1.l2, cal0.mem, cal1.mem, pct(others), pct(c1.steal-c0.steal), pct(c1.self-c0.self))
}

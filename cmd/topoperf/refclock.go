package main

import (
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox the driver runs this benchmark on is a few cores of a
// shared host, and its speed is not a constant: identical code read 17%
// to 60% slower for minutes at a time, mostly without steal time, and the
// driver refused wall-clock throughput whose ten runs spread 27% to 52%.
// Two things make the gated figures steadier there:
//
//   - they count CPU time (user + system, of this process), which the
//     guest kernel keeps free of the time a vCPU was descheduled and of
//     the time spent waiting for the disk, and
//   - they are expressed in reference seconds: beside every window of
//     work the benchmark times a fixed kernel of its own (refKernel:
//     plain Go and the standard library, nothing of the program under
//     test), and the window's CPU time is divided by how slow that kernel
//     ran then. A neighbour on the core's caches and execution units
//     slows both; a change to the program moves only the numerator.
//
// README.md ("Steadiness") has what this buys: about half the spread. The
// wall-clock figures are still printed and recorded (`extra`).

// processCPU is the CPU time this process has used so far, user plus
// system over all its threads.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU is the CPU time of the calling thread; the caller holds
// runtime.LockOSThread.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// cpuClock reads one of the kernel's CPU-time clocks. They count
// nanoseconds the scheduler charged; getrusage rounds to the tick.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("topoperf: clock_gettime: " + errno.Error()) // cannot fail with a valid clock id
	}
	return time.Duration(ts.Nano())
}

// refKernel is the reference work: four stages that allocate nothing
// and call nothing but the standard library, of about equal length —
// dependent loads over a table that fits the L2 cache, dependent loads
// over one that does not, hash-map lookups, and a branchy sort. Under the
// interference measured on the sandbox (serve-preempt read 35% slower for
// minutes) these slowed by 20% to 70%, a multiply chain by nothing; so
// there is none here. Its contents are constants; the workload seed never
// reaches it.
type refKernel struct {
	near     []uint32 // 256 KiB, one cycle; off the Go heap
	far      []uint32 // 8 MiB, one cycle; off the Go heap
	table    map[uint64]uint32
	keys     []uint64
	unsorted []int
	scratch  []int
	units    []float64 // read's scratch
	sink     uint64
}

const (
	refNearLen = 1 << 16
	refFarLen  = 1 << 21
	refKeys    = 1 << 12
	refSortLen = 1 << 12
)

func newRefKernel() *refKernel {
	k := &refKernel{
		near:     offHeap(refNearLen),
		far:      offHeap(refFarLen),
		table:    make(map[uint64]uint32, refKeys),
		keys:     make([]uint64, refKeys),
		unsorted: make([]int, refSortLen),
		scratch:  make([]int, refSortLen),
	}
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// One cycle through the whole table (Sattolo), so a chase never falls
	// into a short loop.
	for _, t := range [][]uint32{k.near, k.far} {
		for i := range t {
			t[i] = uint32(i)
		}
		for i := len(t) - 1; i > 0; i-- {
			j := int(next() % uint64(i))
			t[i], t[j] = t[j], t[i]
		}
	}
	for i := range k.keys {
		k.keys[i] = next()
		k.table[k.keys[i]] = uint32(i)
	}
	for i := range k.unsorted {
		k.unsorted[i] = int(next() >> 40)
	}
	runtime.GC() // the tables are the heap's now; nothing of this is left to collect while timing
	return k
}

// offHeap maps n uint32s outside the Go heap, for the life of the
// process: 8 MiB more live heap would let the collector leave twice that
// in garbage, and the peak_rss_mb and the collector pacing of the program
// under test would be the kernel's as much as its own.
func offHeap(n int) []uint32 {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("topoperf: mmap: " + err.Error())
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
}

// unit does one unit of reference work, a good millisecond of one
// sandbox core.
func (k *refKernel) unit() {
	i := uint32(k.sink) & (refNearLen - 1)
	for n := 0; n < 60000; n++ {
		i = k.near[i]
	}
	j := uint32(k.sink) & (refFarLen - 1)
	for n := 0; n < 2000; n++ {
		j = k.far[j]
	}
	sum := uint64(i) + uint64(j)
	for r := 0; r < 5; r++ {
		for _, key := range k.keys {
			sum += uint64(k.table[key]) + uint64(k.table[key+1]) // a hit and a miss
		}
	}
	copy(k.scratch, k.unsorted)
	slices.Sort(k.scratch)
	k.sink += sum + uint64(k.scratch[refSortLen/2])
}

// refUnitsPerSecond defines the reference second: the time the host
// needs, at that moment, for this many units. It is a constant of the
// benchmark, chosen so that a reference second is about one second of
// one sandbox core on a quiet day.
const refUnitsPerSecond = 920

// read times n units on the calling goroutine and returns how slow the
// host is right now: the CPU seconds it needs for a reference second, 1 on
// the sandbox on a quiet day, 1.3 when it runs 30% slow. The lower
// quartile of the units is taken: the first unit finds a cold cache, and
// whatever else disturbs a unit only ever makes it longer.
func (k *refKernel) read(n int) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if len(k.units) < n {
		k.units = make([]float64, n)
	}
	units := k.units[:n]
	last := threadCPU()
	for i := range units {
		k.unit()
		now := threadCPU()
		units[i] = (now - last).Seconds()
		last = now
	}
	sort.Float64s(units)
	q1, _ := percentile(units, 25) // n > 0
	return q1 * refUnitsPerSecond
}

// refSeconds converts CPU time into reference seconds, given the
// readings of the kernel taken around it: their median says how slow the
// host was.
func refSeconds(cpu time.Duration, readings []float64) float64 {
	return cpu.Seconds() / median(readings)
}

// stretch is one timed piece of work: its wall clock and the CPU time
// the process spent meanwhile.
type stretch struct{ wall, cpu time.Duration }

// timeStretch runs f and times it.
func timeStretch(f func() error) (stretch, error) {
	t0, cpu0 := time.Now(), processCPU()
	err := f()
	return stretch{time.Since(t0), processCPU() - cpu0}, err
}

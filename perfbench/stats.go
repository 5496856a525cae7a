package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// memDelta is the Go runtime's allocation and GC work between two
// snapshots.
type memDelta struct {
	allocMB  float64
	mallocs  float64
	gcCycles float64
	pauseMS  float64
}

func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnapshot()
	return memDelta{
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs:  float64(after.Mallocs - before.Mallocs),
		gcCycles: float64(after.NumGC - before.NumGC),
		pauseMS:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// sample is one operation's cost as the process saw it.
type sample struct {
	wall, cpu float64 // seconds of wall and process CPU time
	rssMB     float64 // resident-set peak reached during the operation
	mem       memDelta
}

// probe measures one operation from begin to end.
type probe struct {
	start time.Time
	cpu   float64
	mem   runtime.MemStats
}

// startProbe resets the resident-set high-water mark, so the
// operation's sample reports its own peak. Where the kernel refuses the
// reset, the peak is the process's so far.
func startProbe() probe {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return probe{mem: memSnapshot(), cpu: cpuSeconds(), start: time.Now()}
}

func (p probe) end() (sample, error) {
	wall := time.Since(p.start).Seconds()
	cpu := cpuSeconds() - p.cpu
	rss, err := peakRSSMB()
	return sample{wall: wall, cpu: cpu, rssMB: rss, mem: memSince(p.mem)}, err
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// samples collects the successful operations of a run.
type samples []sample

func (ss samples) column(f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func (ss samples) walls() []float64 { return ss.column(func(s sample) float64 { return s.wall }) }

// endToEnd reports the end-to-end metrics every workload prints. elapsed
// is the measured loop's wall time, setup the set-up repetitions' times
// and virtual the simulated makespan of one operation.
func (ss samples) endToEnd(m metrics, elapsed float64, setup []float64, virtual float64) {
	m.set("op_p50_ms", median(ss.walls())*1e3, "ms")
	m.set("ops_per_s", float64(len(ss))/elapsed, "1/s")
	m.set("virtual_s", virtual, "s")
	m.set("peak_rss_mb", median(ss.column(func(s sample) float64 { return s.rssMB })), "MB")
	m.set("setup_s", median(setup), "s")
}

// runtimePerOp reports the process CPU time and the Go runtime's
// allocation and GC work as per-operation averages.
func (ss samples) runtimePerOp(m metrics) {
	var t memDelta
	var cpu float64
	for _, s := range ss {
		cpu += s.cpu
		t.allocMB += s.mem.allocMB
		t.mallocs += s.mem.mallocs
		t.gcCycles += s.mem.gcCycles
		t.pauseMS += s.mem.pauseMS
	}
	n := float64(max(len(ss), 1))
	m.set("runtime.cpu_s", cpu/n, "s")
	m.set("runtime.alloc_mb", t.allocMB/n, "MB")
	m.set("runtime.mallocs", t.mallocs/n, "count")
	m.set("runtime.gc_cycles", t.gcCycles/n, "count")
	m.set("runtime.gc_pause_ms", t.pauseMS/n, "ms")
}

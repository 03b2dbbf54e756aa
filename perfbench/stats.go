package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"decomine/internal/engine"
	"decomine/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// resetPeakRSS sets the process's peak resident set size (VmHWM) back
// to its current resident size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB
// since the start, or since the last resetPeakRSS.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
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
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// recorder collects the outcome of every operation of one measured
// phase. Safe for concurrent use (serve-mixed has one client per
// tenant).
type recorder struct {
	mu        sync.Mutex
	latMS     []float64
	attempted int
	failed    int
	errs      []string
}

// op records one operation: its latency, and err != nil when it failed
// or its answer was wrong.
func (r *recorder) op(d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.latMS = append(r.latMS, float64(d)/1e6)
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// counters is a snapshot of the program-exported counters the benchmark
// reads from outside: the obs registry and the Go runtime.
type counters struct {
	obs       obs.Snapshot
	alloc     uint64
	gcCPU     float64
	totalCPU  float64
	workerIns []int64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeCounters(threads int) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	c := counters{obs: obs.Default.Snapshot(), alloc: ms.TotalAlloc}
	if runtimeSamples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = runtimeSamples[0].Value.Float64()
		c.totalCPU = runtimeSamples[1].Value.Float64()
	}
	for t := 0; t < threads; t++ {
		c.workerIns = append(c.workerIns, obs.Default.Counter("engine.worker.instructions."+strconv.Itoa(t)).Load())
	}
	return c
}

// delta is the change of the program-exported counters over one phase.
type delta struct {
	before, after counters
}

func (d delta) counter(name string) float64 {
	return float64(d.after.obs.Counters[name] - d.before.obs.Counters[name])
}

// kernelElems returns the total set-kernel element work and the share
// done by the hub-bitmap paths.
func (d delta) kernelElems() (total, bitmapShare float64) {
	var bitmap float64
	for _, name := range engine.KernelNames {
		v := d.counter("engine.kernel_elems." + name)
		total += v
		if strings.HasPrefix(name, "bitmap") {
			bitmap += v
		}
	}
	if total > 0 {
		bitmapShare = bitmap / total
	}
	return total, bitmapShare
}

// balance is max/mean of the per-worker instruction counts executed in
// the phase (1 = perfectly balanced; 0 when nothing executed).
func (d delta) balance() float64 {
	var sum, top float64
	for t := range d.after.workerIns {
		v := float64(d.after.workerIns[t] - d.before.workerIns[t])
		sum += v
		top = max(top, v)
	}
	if sum == 0 {
		return 0
	}
	return top / (sum / float64(len(d.after.workerIns)))
}

func (d delta) allocMB() float64 { return float64(d.after.alloc-d.before.alloc) / 1e6 }

func (d delta) gcCPUFrac() float64 {
	total := d.after.totalCPU - d.before.totalCPU
	if total <= 0 {
		return 0
	}
	return (d.after.gcCPU - d.before.gcCPU) / total
}

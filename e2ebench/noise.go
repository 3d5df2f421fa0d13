package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hostNoise is the host's state over a run, recorded so an outlier can
// be seen for what it is. No sample is ever dropped or re-run on its
// account.
type hostNoise struct {
	StealPct  float64 `json:"steal_pct"`  // CPU time stolen by the hypervisor
	IOWaitPct float64 `json:"iowait_pct"` // CPU time idle waiting on I/O
	BusyPct   float64 `json:"busy_pct"`   // CPU time not idle, all processes
	LoadAvg   string  `json:"loadavg"`    // /proc/loadavg at the end
	// Speeds is every hostSpeed probe of the run, in steps per
	// nanosecond; Speed is their median, the run's host speed.
	Speeds []float64 `json:"speeds"`
	Speed  float64   `json:"speed"`

	jiffies []int64 // /proc/stat aggregate cpu line
}

// readNoise samples /proc/stat and /proc/loadavg; on a host without
// them the numbers stay zero.
func readNoise() hostNoise {
	var h hostNoise
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		if f := strings.Fields(line); len(f) > 1 && f[0] == "cpu" {
			for _, s := range f[1:] {
				n, _ := strconv.ParseInt(s, 10, 64) // a malformed field counts as 0
				h.jiffies = append(h.jiffies, n)
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(data))
	}
	return h
}

// since turns two samples into shares of the CPU time between them.
// /proc/stat's cpu fields: user nice system idle iowait irq softirq
// steal ...
func (h hostNoise) since(prev hostNoise) hostNoise {
	out := hostNoise{LoadAvg: h.LoadAvg}
	if len(h.jiffies) < 8 || len(prev.jiffies) < 8 {
		return out
	}
	d := make([]float64, 8)
	var total float64
	for i := range d {
		d[i] = float64(h.jiffies[i] - prev.jiffies[i])
		total += d[i]
	}
	if total <= 0 {
		return out
	}
	out.StealPct = 100 * d[7] / total
	out.IOWaitPct = 100 * d[4] / total
	out.BusyPct = 100 * (total - d[3] - d[4]) / total
	return out
}

// stealSince is the share of the host's CPU time stolen by the
// hypervisor between prev and h.
func (h hostNoise) stealSince(prev hostNoise) float64 { return h.since(prev).StealPct / 100 }

// speedSink keeps hostSpeed's loops from being optimized away.
var speedSink atomic.Uint64

// refSpeed is the host speed every end-to-end timing is scaled to,
// in hostSpeed's steps per nanosecond: about what a two-vCPU cloud
// guest measures, so scaled figures read close to such a host's.
//
// A shared host slows the benchmark in two ways, and both move every
// timing by more than any bound a regression check could use between
// runs a few minutes apart. Its cores run at a speed that wanders by
// a fifth or more from one minute to the next while reporting no
// steal time; within a run the speed holds to a few percent. And for
// minutes at a time the hypervisor gives a fifth or more of the CPU
// time to other guests, which /proc/stat counts as steal. So each
// timed interval (a phase, a set-up) is shortened by the share of the
// CPU time stolen during it, and each run probes the host's speed
// between phases, with nothing of the benchmark running, and reports
// its timings as they would read at refSpeed.
//
// The benchmark feels a slow host more than the probe does: over
// several sets of ten runs its rates moved 1.3 to 2 times as much as
// the probe's speed, in log ratio, and a plain ratio left up to two
// thirds of the drift in. So a time is multiplied by
// (speed/refSpeed)^2 and a rate divided by it (timeScale). The probe
// is the benchmark's own loop, so no change to the program can move
// it, and a program that gets faster reads faster by the same ratio.
// The context line keeps the values as measured.
const refSpeed = 0.35

// timeScale is what a time measured at speed is multiplied by to read
// as at refSpeed (see refSpeed).
func timeScale(speed float64) float64 {
	r := speed / refSpeed
	return r * r
}

// chase is hostSpeed's table: one random cycle through 16 MiB of
// slots, more than the cache a guest on a shared host can count on.
// Built once.
var chase = sync.OnceValue(func() []uint32 {
	next := make([]uint32, 1<<22)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle through every slot.
	x := uint64(88172645463325252)
	for i := len(next) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return next
})

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// hostSpeed runs a fixed loop on every CPU at once and returns its
// steps per nanosecond of CPU time not stolen, summed over the CPUs:
// the host's speed, which a change to the serving stack cannot move.
// The loop spends about half its time on register arithmetic and half
// on loads from chase that each wait for the one before: neighbours on
// a shared host slow a core's arithmetic and its memory by different
// amounts, and the serving stack needs both.
func hostSpeed() float64 {
	const alu, loads = 1 << 24, 1 << 18
	next := chase()
	noise0 := readNoise()
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(x uint64, p uint32) {
			defer wg.Done()
			for k := 0; k < alu; k++ {
				x = xorshift(x)
			}
			for k := 0; k < loads; k++ {
				p = next[p]
			}
			speedSink.Add(x + uint64(p))
		}(uint64(i)+88172645463325252, uint32(i*len(next)/n))
	}
	wg.Wait()
	ran := float64(time.Since(start).Nanoseconds()) * (1 - readNoise().stealSince(noise0))
	return float64((alu+loads)*n) / ran
}

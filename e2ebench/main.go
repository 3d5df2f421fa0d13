// Command e2ebench is the serving stack's end-to-end benchmark. It
// boots asimd and asimcoord in-process — a plain service.Server
// ("single"), one over a durable.FileStore ("durable"), and a
// cluster.Coordinator over two shard-mode servers ("cluster") — and
// drives seeded campaign jobs through each along the path users take:
// HTTP, admission, compile or cache, engine rung, render, persist,
// write, merge. Every job's run lines are checked byte for byte
// against an in-process reference.
//
// A run repeats rounds while another fits in --seconds. A round boots
// all three topologies fresh and warms each (the timed set-up), then
// runs one phase per topology: a fixed number of jobs from two
// closed-loop clients, then drain, teardown and GC. With --trace 0
// every round is untraced and the end-to-end metrics are printed; with
// --trace 1 untraced and traced rounds alternate and the per-layer
// metrics are printed, the traced rounds carrying the layer meters and
// span fetches.
//
//	e2ebench --workload short-fleet --seed 1 --seconds 55 --trace 0
//
// End-to-end timings leave out the CPU time the hypervisor stole and
// are scaled to a reference host speed (refSpeed says why). The last
// line of standard output is the result object; the line before it
// records host noise (steal, iowait, load, host speed) and the
// end-to-end values as measured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // parent of the durable topology's state dirs
	// phaseJobs, when positive, overrides every phase's job count
	// (the self-check uses it to stay short).
	phaseJobs int
}

// runGrace is how long past --seconds a run may go before its
// outstanding jobs are cancelled: enough for the last round to finish
// on a slow host, short enough to exit within three minutes.
const runGrace = 100 * time.Second

// warmWave picks the phase's own jobs the two clients run, untimed,
// before the phase: perProgram jobs of every distinct request.
// The capped warm-up requests fill the program caches but profile the
// gang planner on one job running alone. Under the two clients'
// contention the planner then narrows the sieve's gangs, job after
// job, from several lanes to its floor of two, and it keeps a profile
// per program. A phase started from the solo profile timed that
// narrowing, whose pace follows the host's speed, and one that had
// settled only some of its programs ran the rest wide: either way its
// rate swung by half from round to round.
func warmWave(jobs []job, perProgram int) []job {
	seen := map[string]int{}
	var wave []job
	for _, j := range jobs {
		if k := j.key(); seen[k] < perProgram {
			seen[k]++
			wave = append(wave, j)
		}
	}
	return wave
}

// round is one boot of the three topologies and their phases.
type round struct {
	traced bool
	setup  time.Duration
	// setupSteal is the share of the host's CPU time stolen during
	// set-up.
	setupSteal float64
	phases     []phaseResult
	// speeds are the host speed probes taken after each phase's
	// teardown.
	speeds []float64
}

// report is a finished run.
type report struct {
	attempted, failed int
	failures          map[string]int // failed jobs per topology
	attemptedBy       map[string]int
	firstErr          error
	metrics           map[string]value
	raw               map[string]float64 // end-to-end values before scaling
	noise             hostNoise
	rounds            int
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: short-fleet or long-fleet")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 55, "measuring time: rounds are started while another fits")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from traced rounds, 0 the end-to-end metrics")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/tmp", "directory for the durable topology's state dirs")
	flag.Parse()
	if flag.NArg() != 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o.trace = trace == 1
	rep, err := run(context.Background(), o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and computes its metrics; log
// receives progress.
func run(ctx context.Context, o options, log io.Writer) (*report, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	scratch, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)

	// Every topology's phase list comes from the same seed, so the
	// sieve sizes agree and each list is balanced over its classes.
	jobs := map[string][]job{}
	var all []job
	for _, t := range topologies {
		n := w.jobs[t]
		if o.phaseJobs > 0 {
			n = o.phaseJobs
		}
		if jobs[t], err = w.build(rand.New(rand.NewSource(o.seed)), n); err != nil {
			return nil, err
		}
		all = append(all, jobs[t]...)
	}
	refStart := time.Now()
	refs, err := references(ctx, all)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "e2ebench: %s seed %d: %d reference outputs in %.2fs\n",
		w.name, o.seed, len(refs), time.Since(refStart).Seconds())
	warm := warmups(all)

	// A hung server must not hang the benchmark: past this deadline
	// its jobs fail, are counted, and no further round starts.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds*float64(time.Second))+runGrace)
	defer cancel()
	noise0 := readNoise()
	speeds := []float64{hostSpeed()}
	start := time.Now()
	// Each round runs its phases' jobs in a fresh seeded order, so
	// which sieve sizes share the host differs from round to round
	// rather than being tied to the seed.
	order := rand.New(rand.NewSource(o.seed))
	var rounds []round
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		shuffled := map[string][]job{}
		for _, t := range topologies {
			for _, k := range order.Perm(len(jobs[t])) {
				shuffled[t] = append(shuffled[t], jobs[t][k])
			}
		}
		r, err := runRound(ctx, w, scratch, shuffled, refs, warm, traced)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		speeds = append(speeds, r.speeds...)
		fmt.Fprintf(log, "e2ebench: round %d (traced=%v): setup %.2fs", i, traced, r.setup.Seconds())
		for _, p := range r.phases {
			fmt.Fprintf(log, ", %s %.0f runs/s (steal %.0f%%)", p.topo, float64(p.runs())/p.wall.Seconds(), 100*p.steal)
		}
		fmt.Fprintf(log, ", host speed %.3f\n", median(slices.Clone(r.speeds)))
		// Start another round only if it should end within the
		// budget; a traced run needs one round of each kind.
		elapsed := time.Since(start)
		next := elapsed + elapsed/time.Duration(len(rounds))
		if ctx.Err() != nil || next.Seconds() > o.seconds && (!o.trace || i >= 1) {
			break
		}
	}
	logClasses(log, rounds)
	rep := &report{rounds: len(rounds), failures: map[string]int{}, attemptedBy: map[string]int{}}
	rep.noise = readNoise().since(noise0)
	rep.noise.Speeds = slices.Clone(speeds)
	rep.noise.Speed = median(speeds)
	scale := timeScale(rep.noise.Speed)
	for _, r := range rounds {
		for _, p := range r.phases {
			for _, j := range p.jobs {
				rep.attempted++
				rep.attemptedBy[p.topo]++
				if j.err != nil {
					rep.failed++
					rep.failures[p.topo]++
					if rep.firstErr == nil {
						rep.firstErr = fmt.Errorf("%s %s job: %w", p.topo, j.class, j.err)
					}
				}
			}
		}
	}
	rss := float64(telemetry.PeakRSSBytes()) / (1 << 20)
	rep.raw = endToEndValues(rounds, rss, scale, true)
	defs, vals := endToEnd(), endToEndValues(rounds, rss, scale, false)
	if o.trace {
		defs, vals = perLayer(), layerValues(rounds, scale)
	}
	rep.metrics = map[string]value{}
	for _, m := range defs {
		rep.metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	return rep, nil
}

// runRound boots every topology, warms each, and runs their phases in
// order, tearing each down as its phase ends.
func runRound(ctx context.Context, w *workload, scratch string, jobs map[string][]job, refs map[string][][]byte, warm []service.JobRequest, traced bool) (r round, err error) {
	r.traced = traced
	noise0 := readNoise()
	start := time.Now()
	deps := map[string]*deployment{}
	defer func() {
		for _, d := range deps {
			if cerr := d.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	for _, t := range topologies {
		d, err := boot(t, scratch, traced)
		if err != nil {
			return r, fmt.Errorf("boot %s: %w", t, err)
		}
		deps[t] = d
		if err := warmUp(ctx, d, warm); err != nil {
			return r, fmt.Errorf("warm %s: %w", t, err)
		}
		p := runPhase(ctx, d, "wave", warmWave(jobs[t], w.warm), refs, false)
		if err := p.firstErr(); err != nil {
			return r, fmt.Errorf("warm %s: %w", t, err)
		}
	}
	r.setup = time.Since(start)
	r.setupSteal = readNoise().stealSince(noise0)
	for _, t := range topologies {
		p := runPhase(ctx, deps[t], "bench", jobs[t], refs, traced)
		r.phases = append(r.phases, p)
		d := deps[t]
		delete(deps, t)
		if err := d.close(); err != nil {
			return r, fmt.Errorf("teardown %s: %w", t, err)
		}
		runtime.GC()
		// Time the host with nothing of the benchmark's running.
		r.speeds = append(r.speeds, hostSpeed())
	}
	return r, nil
}

// logClasses prints each job class's latency range per topology.
func logClasses(log io.Writer, rounds []round) {
	lat := map[string][]float64{}
	for _, r := range rounds {
		if r.traced {
			continue
		}
		for _, p := range r.phases {
			for _, j := range p.jobs {
				k := p.topo + " " + j.class
				lat[k] = append(lat[k], ms(j.latency))
			}
		}
	}
	keys := make([]string, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		xs := lat[k]
		p50 := median(xs) // sorts xs
		fmt.Fprintf(log, "e2ebench: %-28s %4d jobs, latency min %8.1f p50 %8.1f max %8.1f ms\n",
			k, len(xs), xs[0], p50, xs[len(xs)-1])
	}
}

// print writes the host-noise context line and then the result
// object, which is the last line of output.
func (rep *report) print(out io.Writer) error {
	ctxLine := map[string]any{
		"context": map[string]any{
			"rounds":        rep.rounds,
			"attempted":     rep.attemptedBy,
			"failed":        rep.failures,
			"host":          rep.noise,
			"unscaled":      rep.raw,
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"go":            runtime.Version(),
			"first_failure": errString(rep.firstErr),
		},
	}
	res := map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(ctxLine); err != nil {
		return err
	}
	return enc.Encode(res)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

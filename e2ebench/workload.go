package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/service"
)

// job is one generated request and the class it belongs to. The
// servers receive only req; class labels the job in the benchmark's
// own books.
type job struct {
	class string
	req   service.JobRequest
}

// key identifies a request's reference output: identical requests
// stream identical run lines on every topology.
func (j job) key() string {
	b, _ := json.Marshal(j.req) // a JobRequest always marshals
	return string(b)
}

// workload is one traffic mix. Every phase of every round runs the
// same seeded job list, so work per phase is fixed and the exact
// counts repeat run to run; only the order and the sieve sizes depend
// on the seed, and those do not change the cost of a job.
type workload struct {
	name string
	why  string
	// jobs is the number of jobs in one phase, per topology. The
	// single topology serves short jobs ten times faster than the
	// others, so it gets more of them for a phase long enough to time.
	jobs map[string]int
	// warm is how many jobs of each program the two clients run,
	// untimed, before a phase (see warmWave): as many as the gang
	// planner needs to settle under contention.
	warm int
	// build returns n jobs generated from rng.
	build func(rng *rand.Rand, n int) ([]job, error)
}

// sieveSizes draws k distinct flags-array sizes from [16, 80). The
// sieve never halts inside its budget at these sizes' cycle counts,
// so every size costs the same per cycle; the seed changes only which
// programs are compiled and cached.
func sieveSizes(rng *rand.Rand, k int) []int {
	perm := rng.Perm(64)
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = 16 + perm[i]
	}
	return sizes
}

// fleet builds n Figure 5.1 sieve jobs — runs copies of the sieve,
// cycles cycles each, on the compiled backend — cycling through
// nsizes seeded flags-array sizes in a seeded order, so each size
// appears equally often.
func fleet(rng *rand.Rand, n, nsizes, runs int, cycles int64) ([]job, error) {
	sizes := sieveSizes(rng, nsizes)
	jobs := make([]job, n)
	for i, p := range rng.Perm(n) {
		src, err := machines.SieveSpec(sizes[p%nsizes])
		if err != nil {
			return nil, fmt.Errorf("sieve spec of size %d: %w", sizes[p%nsizes], err)
		}
		jobs[i] = job{class: "sieve", req: service.JobRequest{
			Spec: src, Backend: string(core.Compiled), Runs: runs, Cycles: cycles,
		}}
	}
	return jobs, nil
}

// workloads lists the benchmark's traffic mixes. The comment above
// each says why it exists and which end-to-end metrics it is there to
// move.
var workloads = []workload{
	// short-fleet: per-run serving cost dominates wherever a run is
	// persisted or shipped. 512 runs of 200 cycles hit the
	// ProgramCache; a plain server still spends most of a job in the
	// engine (the sieve's cycles are dear), but the durable store's two
	// fsyncs per run (result plus retirement checkpoint) and the
	// cluster's streamed retirement checkpoints and merge take most of
	// theirs. Checkpoint and fsync cuts and a single job core must show
	// here, in *.runs_per_s and *.job_p50_ms.
	{
		name: "short-fleet",
		why:  "512 cached sieve runs x 200 cycles per job: render, fsync, checkpoint streaming and merge dominate",
		jobs: map[string]int{"single": 48, "durable": 8, "cluster": 6},
		warm: 2,
		build: func(rng *rand.Rand, n int) ([]job, error) {
			return fleet(rng, n, 3, 512, 200)
		},
	},
	// long-fleet: the gang engine takes nearly all job time. 128
	// runs are two 64-run cluster chunks, so both shards work; at 10k
	// cycles a run simulates a hundred times longer than it takes to
	// render, persist and merge, so those layers sit idle. (10k rather
	// than 100k cycles keeps a round short enough to repeat several
	// times in one run.) One seeded sieve size: the planner needs four
	// jobs per program to settle here, and a second program would
	// double that untimed work in every round. Evaluator and rung
	// changes show here in *.runs_per_s; serving-path changes are
	// predicted not to move it.
	{
		name: "long-fleet",
		why:  "128 sieve runs x 10k cycles per job: the gang engine and compiled kernels take nearly all the time",
		jobs: map[string]int{"single": 12, "durable": 12, "cluster": 12},
		warm: 4,
		build: func(rng *rand.Rand, n int) ([]job, error) {
			return fleet(rng, n, 1, 128, 10_000)
		},
	},
	// A third workload, scenario-mix (equal thirds of sieve-backends,
	// tiny-divide-faults and bit-mix spec jobs: scalar, non-compiled
	// and bit-parallel rungs, per-job compiles that bypass the cache),
	// was dropped: between runs of the same code on a shared host its
	// job_p50_ms spread by more than a quarter, and three workloads
	// left runs too short to average it out.
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// warmups returns one small request per distinct program in jobs:
// the same spec on the same backend, capped at one gang of runs and a
// few thousand cycles. Posting it fills the program cache on every
// server a job may reach; the warmWave that follows it settles the
// gang planner.
func warmups(jobs []job) []service.JobRequest {
	seen := map[string]bool{}
	var out []service.JobRequest
	for _, j := range jobs {
		r := j.req
		r.Runs = min(r.Runs, 64)
		r.Cycles = min(r.Cycles, 4096)
		k := job{req: r}.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

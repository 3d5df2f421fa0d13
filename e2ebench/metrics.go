package main

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// metric is one reported number's definition. exact marks a count
// that depends only on the workload and its seed, so two runs of the
// same code must report it identically; the self-check holds the
// benchmark to that.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	exact  bool
}

// endToEnd are the numbers a user of the serving stack sees, measured
// in untraced rounds. Deliberately absent, after an earlier attempt
// proved them unsteady: first-result latency (the cluster merge holds
// every line until chunk 0 lands, so it times scheduling races),
// p90/p99 (phases of a few dozen jobs never put ten samples beyond
// p90), and simulated-time statistics (deterministic; the byte-for-
// byte check covers them).
func endToEnd() []metric {
	ms := []metric{
		// setup_s: one round's set-up — boot all three topologies,
		// post the warm-up requests that fill every program cache, and
		// run each phase's warmWave to settle the gang planners. Median
		// over the run's rounds; work moved out of the timed phases
		// into start-up shows here.
		{name: "setup_s", unit: "s", better: "lower"},
		// peak_rss_mb: the process's VmHWM at the end of the run.
		// Retained merge buffers and checkpoints move it; the
		// *.heap_retained_mb layer metrics say where.
		{name: "peak_rss_mb", unit: "MiB", better: "lower"},
	}
	// The durable topology's pair is reported with the per-layer
	// metrics instead: its short-fleet phase waits on two fsyncs per
	// run, and each wait ends in a wake-up whose latency follows the
	// host's steal time, so between runs on a shared host its figures
	// spread by a third while the others stay within a tenth.
	for _, t := range []string{"single", "cluster"} {
		ms = append(ms, fleetMetrics(t)...)
	}
	return ms
}

// fleetMetrics are a topology's user-visible pair.
func fleetMetrics(t string) []metric {
	return []metric{
		// t.runs_per_s: run lines delivered over the wall time of the
		// run's phases — the fleet capacity of the topology under two
		// closed-loop clients. Like every end-to-end time, at refSpeed
		// and without the time stolen from the host.
		{name: t + ".runs_per_s", unit: "1/s", better: "higher"},
		// t.job_p50_ms: median latency from POST to trailer over every
		// job of the run's rounds. Each workload has one job class, so
		// the median never lands between two shapes.
		{name: t + ".job_p50_ms", unit: "ms", better: "lower"},
	}
}

// perLayer are the traced rounds' numbers, grouped by the module they
// measure. Each group's comment names the end-to-end metric it should
// move. All of them are taken from outside the program: the benchmark's
// own client, GET /v1/trace/{id}, Server.Cache(), Tracer.Dropped(), a
// timing durable.Store wrapper and a counting cluster transport.
func perLayer() []metric {
	var ms []metric
	for _, t := range topologies {
		ms = append(ms,
			// service (HTTP surface): should move t.runs_per_s and
			// t.job_p50_ms on short-fleet. bytes_per_run counts run
			// lines only: the trailer carries wall-clock figures.
			metric{name: t + ".http.header_ms_p50", unit: "ms", better: "lower"},
			metric{name: t + ".http.bytes_per_run", unit: "B", better: "lower", exact: true},
			metric{name: t + ".service.compile_ms_p50", unit: "ms", better: "lower"},
			// engine_share: union of engine.<rung> spans over the job
			// window (admit start to job end); unaccounted_share: the
			// window not covered by admit, plan, compile or engine
			// spans — render, persist and write today.
			metric{name: t + ".service.engine_share", unit: "ratio", better: "higher"},
			metric{name: t + ".service.unaccounted_share", unit: "ratio", better: "lower"},
			// core: program-cache hits per engine-side job (a chunk on
			// the cluster); 1 on both fleets, whose programs the
			// warm-ups cache. A miss would move t.job_p50_ms.
			metric{name: t + ".core.cache_hit_ratio", unit: "ratio", better: "higher", exact: true},
			// memory: live heap after a forced GC at the end of an
			// untraced phase, before teardown. Should move peak_rss_mb.
			metric{name: t + ".heap_retained_mb", unit: "MiB", better: "lower"},
			// telemetry: traced against untraced runs_per_s, in
			// percent. Informational; tracing must not change results.
			metric{name: t + ".trace.overhead_pct", unit: "%", better: "lower"},
		)
	}
	ms = append(ms,
		// campaign (single topology, engine spans): which rung ran how
		// many runs, what a simulated lane-cycle costs, how wide gangs
		// are. Should move *.runs_per_s on long-fleet.
		// The rung shares are not exact: the planner sets gang widths
		// from measured time, and a run left over after the last full
		// gang drops to the scalar rung.
		metric{name: "campaign.runs_share.scalar", unit: "ratio", better: "lower"},
		metric{name: "campaign.runs_share.lane-loop", unit: "ratio", better: "higher"},
		metric{name: "campaign.runs_share.bit-parallel", unit: "ratio", better: "higher"},
		metric{name: "campaign.ns_per_cycle", unit: "ns", better: "lower"},
		metric{name: "campaign.lanes_per_gang", unit: "count", better: "higher"},
	)
	// durable: the topology's user-visible pair, from the untraced
	// rounds (endToEnd says why it is not gated there). Checkpoint and
	// fsync cuts must show in it on short-fleet.
	ms = append(ms, fleetMetrics("durable")...)
	ms = append(ms,
		// durable (timing Store wrapper): records, payload bytes and
		// time per delivered run; append_share is time inside Append
		// over phase wall time (appends overlap, so it can pass 1).
		// Should move durable.runs_per_s and durable.job_p50_ms on
		// short-fleet, and stay near 0 on long-fleet.
		metric{name: "durable.appends_per_run", unit: "count", better: "lower", exact: true},
		metric{name: "durable.checkpoint_appends_per_run", unit: "count", better: "lower", exact: true},
		metric{name: "durable.result_appends_per_run", unit: "count", better: "lower", exact: true},
		metric{name: "durable.bytes_per_run", unit: "B", better: "lower", exact: true},
		metric{name: "durable.append_us_per_run", unit: "us", better: "lower"},
		metric{name: "durable.append_share", unit: "ratio", better: "lower"},
		// cluster (counting transport and coordinator spans): chunk
		// dispatches per job, shard-to-coordinator run and checkpoint
		// line bytes and checkpoint lines per run, re-dispatches (0 on
		// a healthy fabric), chunk latency, and the coordinator's job
		// window outside chunk spans (plan, merge, write). Should move
		// cluster.runs_per_s and cluster.job_p50_ms on short-fleet.
		metric{name: "cluster.chunks_per_job", unit: "count", better: "lower", exact: true},
		metric{name: "cluster.wire_bytes_per_run", unit: "B", better: "lower", exact: true},
		metric{name: "cluster.checkpoint_lines_per_run", unit: "count", better: "lower", exact: true},
		metric{name: "cluster.redispatches", unit: "count", better: "lower", exact: true},
		metric{name: "cluster.chunk_ms_p50", unit: "ms", better: "lower"},
		metric{name: "cluster.unaccounted_share", unit: "ratio", better: "lower"},
		// telemetry: spans evicted from any traced ring. Must be 0, or
		// the span-derived numbers above are incomplete.
		metric{name: "trace.dropped_spans", unit: "count", better: "lower", exact: true},
	)
	return ms
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median of xs (0 for none). It sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// byTopo groups phases by topology, keeping only traced or untraced
// ones.
func byTopo(rounds []round, traced bool) map[string][]phaseResult {
	out := map[string][]phaseResult{}
	for _, r := range rounds {
		if r.traced != traced {
			continue
		}
		for _, p := range r.phases {
			out[p.topo] = append(out[p.topo], p)
		}
	}
	return out
}

// runsPerSec is run lines delivered over the phases' summed wall
// time, less the time stolen from the host. Pooling every phase of
// the run averages out the round-to-round wander better than a median
// of a handful of per-phase rates.
func runsPerSec(phases []phaseResult) float64 {
	var runs int
	var ran float64
	for _, p := range phases {
		runs += p.runs()
		ran += p.ran()
	}
	return ratio(float64(runs), ran)
}

// endToEndValues computes the end-to-end metrics, and the durable
// topology's pair, from the untraced rounds. Unless asMeasured, every
// time is shortened by the share stolen during it and multiplied by
// scale, the run's timeScale.
func endToEndValues(rounds []round, peakRSS, scale float64, asMeasured bool) map[string]float64 {
	kept := func(steal float64) float64 { return 1 - steal }
	if asMeasured {
		scale, kept = 1, func(float64) float64 { return 1 }
	}
	v := map[string]float64{"peak_rss_mb": peakRSS}
	var setups []float64
	for _, r := range rounds {
		if !r.traced {
			setups = append(setups, r.setup.Seconds()*kept(r.setupSteal))
		}
	}
	v["setup_s"] = median(setups) * scale
	for t, phases := range byTopo(rounds, false) {
		var lat []float64
		var runs int
		var ran float64
		for _, p := range phases {
			for _, j := range p.jobs {
				lat = append(lat, ms(j.latency)*kept(p.steal))
			}
			runs += p.runs()
			ran += p.wall.Seconds() * kept(p.steal)
		}
		v[t+".runs_per_s"] = ratio(float64(runs), ran) / scale
		v[t+".job_p50_ms"] = median(lat) * scale
	}
	return v
}

// interval is a span's [start, end) in microseconds.
type interval struct{ lo, hi int64 }

func spanInterval(sp telemetry.Span) interval {
	return interval{sp.StartUS, sp.StartUS + sp.DurUS}
}

// covered is the length of the union of ivs clipped to w.
func covered(ivs []interval, w interval) int64 {
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var total int64
	cur := w.lo
	for _, iv := range ivs {
		lo, hi := max(iv.lo, cur), min(iv.hi, w.hi)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// jobWindow is the front server's window for one job: from its admit
// span's start to its job span's end.
func jobWindow(front []telemetry.Span) (interval, bool) {
	var w interval
	var admit, done bool
	for _, sp := range front {
		switch sp.Name {
		case "admit":
			w.lo, admit = sp.StartUS, true
		case "job":
			w.hi, done = sp.StartUS+sp.DurUS, true
		}
	}
	return w, admit && done && w.hi > w.lo
}

// layerValues computes every per-layer metric. Traced rounds supply
// everything but memory and the tracing overhead, which compare with
// or come from the untraced rounds. Only the durable pair, an
// end-to-end metric in all but its gate, is scaled by scale; the
// layer timings are as measured.
func layerValues(rounds []round, scale float64) map[string]float64 {
	v := map[string]float64{}
	traced, untraced := byTopo(rounds, true), byTopo(rounds, false)
	var dropped int64
	for _, t := range topologies {
		var headers, compiles []float64
		var bytes, runs, engineUS, accountedUS, windowUS int64
		var hits, lookups int64
		for _, p := range traced[t] {
			dropped += p.dropped
			hits += p.cacheHits
			for _, j := range p.jobs {
				headers = append(headers, ms(j.header))
				bytes += j.bytes
				runs += int64(j.runs)
				w, ok := jobWindow(j.front)
				if !ok {
					continue
				}
				// Only engine-bearing servers record compile spans (the
				// coordinator plans), one per job or chunk they admit.
				var engine, accounted []interval
				for _, sp := range append(slices.Clone(j.front), j.shards...) {
					iv := spanInterval(sp)
					switch {
					case strings.HasPrefix(sp.Name, "engine."):
						engine = append(engine, iv)
						accounted = append(accounted, iv)
					case sp.Name == "compile":
						compiles = append(compiles, float64(sp.DurUS)/1000)
						lookups++
						accounted = append(accounted, iv)
					case sp.Name == "admit" || sp.Name == "plan":
						accounted = append(accounted, iv)
					}
				}
				windowUS += w.hi - w.lo
				engineUS += covered(engine, w)
				accountedUS += covered(accounted, w)
			}
		}
		v[t+".http.header_ms_p50"] = median(headers)
		v[t+".http.bytes_per_run"] = ratio(float64(bytes), float64(runs))
		v[t+".service.compile_ms_p50"] = median(compiles)
		v[t+".service.engine_share"] = ratio(float64(engineUS), float64(windowUS))
		v[t+".service.unaccounted_share"] = 1 - ratio(float64(accountedUS), float64(windowUS))
		v[t+".core.cache_hit_ratio"] = ratio(float64(hits), float64(lookups))
		var heap []float64
		for _, p := range untraced[t] {
			heap = append(heap, p.heapMB)
		}
		v[t+".heap_retained_mb"] = median(heap)
		base := runsPerSec(untraced[t])
		v[t+".trace.overhead_pct"] = 100 * ratio(base-runsPerSec(traced[t]), base)
	}
	v["trace.dropped_spans"] = float64(dropped)
	for _, m := range fleetMetrics("durable") {
		v[m.name] = endToEndValues(rounds, 0, scale, false)[m.name]
	}
	campaignValues(traced["single"], v)
	durableValues(traced["durable"], v)
	clusterValues(traced["cluster"], v)
	return v
}

// campaignValues reads the single topology's engine spans: runs per
// rung, wall time per simulated lane-cycle, and lanes per gang.
func campaignValues(phases []phaseResult, v map[string]float64) {
	rungRuns := map[string]int64{}
	var allRuns, durUS, cycles, gangs, lanes int64
	for _, p := range phases {
		for _, j := range p.jobs {
			for _, sp := range j.front {
				if !strings.HasPrefix(sp.Name, "engine.") {
					continue
				}
				rungRuns[sp.Rung] += int64(sp.Runs)
				allRuns += int64(sp.Runs)
				durUS += sp.DurUS
				cycles += sp.Cycles
				if sp.Rung == campaign.RungLaneLoop || sp.Rung == campaign.RungBitParallel {
					gangs++
					lanes += int64(sp.Lanes)
				}
			}
		}
	}
	for _, rung := range []string{campaign.RungScalar, campaign.RungLaneLoop, campaign.RungBitParallel} {
		v["campaign.runs_share."+rung] = ratio(float64(rungRuns[rung]), float64(allRuns))
	}
	v["campaign.ns_per_cycle"] = ratio(float64(durUS)*1000, float64(cycles))
	v["campaign.lanes_per_gang"] = ratio(float64(lanes), float64(gangs))
}

// durableValues reads the timing store wrapper's books.
func durableValues(phases []phaseResult, v map[string]float64) {
	var c storeCounts
	var runs int64
	var wall time.Duration
	for _, p := range phases {
		c.appends += p.store.appends
		c.checkpoints += p.store.checkpoints
		c.results += p.store.results
		c.bytes += p.store.bytes
		c.nanos += p.store.nanos
		runs += int64(p.runs())
		wall += p.wall
	}
	per := func(x int64) float64 { return ratio(float64(x), float64(runs)) }
	v["durable.appends_per_run"] = per(c.appends)
	v["durable.checkpoint_appends_per_run"] = per(c.checkpoints)
	v["durable.result_appends_per_run"] = per(c.results)
	v["durable.bytes_per_run"] = per(c.bytes)
	v["durable.append_us_per_run"] = per(c.nanos) / 1000
	v["durable.append_share"] = ratio(float64(c.nanos), float64(wall))
}

// clusterValues reads the counting transport's books and the
// coordinator's chunk spans.
func clusterValues(phases []phaseResult, v map[string]float64) {
	var w wireCounts
	var runs, jobs, redispatches, windowUS, chunkUS int64
	var chunkMS []float64
	for _, p := range phases {
		w.chunks += p.wire.chunks
		w.bytes += p.wire.bytes
		w.checkpoints += p.wire.checkpoints
		runs += int64(p.runs())
		jobs += int64(len(p.jobs))
		for _, j := range p.jobs {
			var chunks []interval
			for _, sp := range j.front {
				if sp.Name != "chunk" {
					continue
				}
				chunkMS = append(chunkMS, float64(sp.DurUS)/1000)
				chunks = append(chunks, spanInterval(sp))
				if sp.Attempt > 1 {
					redispatches++
				}
			}
			if win, ok := jobWindow(j.front); ok {
				windowUS += win.hi - win.lo
				chunkUS += covered(chunks, win)
			}
		}
	}
	v["cluster.chunks_per_job"] = ratio(float64(w.chunks), float64(jobs))
	v["cluster.wire_bytes_per_run"] = ratio(float64(w.bytes), float64(runs))
	v["cluster.checkpoint_lines_per_run"] = ratio(float64(w.checkpoints), float64(runs))
	v["cluster.redispatches"] = float64(redispatches)
	v["cluster.chunk_ms_p50"] = median(chunkMS)
	v["cluster.unaccounted_share"] = 1 - ratio(float64(chunkUS), float64(windowUS))
}

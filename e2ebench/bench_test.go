package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"testing/iotest"
)

// TestExactCountsRepeat is the benchmark's self-check: two traced runs
// of the same seed must report every metric marked exact identically,
// check every job correct, keep every span and re-dispatch nothing.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark four times")
	}
	for _, w := range []string{"short-fleet", "long-fleet"} {
		t.Run(w, func(t *testing.T) {
			var reps [2]*report
			for i := range reps {
				o := options{workload: w, seed: 7, trace: true, scratch: t.TempDir(), phaseJobs: 3}
				rep, err := run(context.Background(), o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 {
					t.Fatalf("run %d: %d of %d jobs failed; first: %v", i, rep.failed, rep.attempted, rep.firstErr)
				}
				reps[i] = rep
			}
			for _, m := range perLayer() {
				a, b := reps[0].metrics[m.name].Value, reps[1].metrics[m.name].Value
				if m.exact && a != b {
					t.Errorf("%s: %v then %v; an exact count must repeat", m.name, a, b)
				}
			}
			for _, name := range []string{"trace.dropped_spans", "cluster.redispatches"} {
				if v := reps[0].metrics[name].Value; v != 0 {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to the
// metric tables here and the workload list.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i := range min(len(spec.Workloads), len(workloads)) {
		if got, want := spec.Workloads[i], workloads[i]; got.Name != want.name || got.Why != want.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, want.name, want.why)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metric) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(defs))
		}
		for i := range min(len(listed), len(defs)) {
			got, want := listed[i], defs[i]
			if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got, want)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd())
	check("per_layer", spec.PerLayer, perLayer())
}

// TestMeteredBody feeds a chunk stream one byte at a time, so every
// line's first bytes arrive split across reads.
func TestMeteredBody(t *testing.T) {
	header := `{"job":"j12","runs":2}` + "\n"
	ck := `{"checkpoint":true,"index":0,"cycle":200,"state":"AAAA"}` + "\n"
	run0 := `{"index":0,"name":"job-0","cycles":200}` + "\n"
	run1 := `{"index":1,"name":"job-1","cycles":200}` + "\n"
	trailer := `{"done":true,"summary":{"elapsed_s":0.0123}}` + "\n"
	stream := header + ck + run0 + ck + run1 + trailer

	for _, name := range []string{"whole", "one byte at a time"} {
		m := &wireMeter{}
		var r io.Reader = strings.NewReader(stream)
		if name != "whole" {
			r = iotest.OneByteReader(r)
		}
		body := &meteredBody{ReadCloser: io.NopCloser(r), m: m}
		got, err := io.ReadAll(body)
		if err != nil || !bytes.Equal(got, []byte(stream)) {
			t.Fatalf("%s: read %q, %v", name, got, err)
		}
		if n := m.checkpoints.Load(); n != 2 {
			t.Errorf("%s: %d checkpoint lines, want 2", name, n)
		}
		if n, want := m.bytes.Load(), int64(2*len(ck)+len(run0)+len(run1)); n != want {
			t.Errorf("%s: %d line bytes, want %d", name, n, want)
		}
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{50, 70}, {0, 10}, {5, 20}, {60, 120}}
	if got := covered(ivs, interval{0, 100}); got != 20+50 {
		t.Errorf("covered = %d, want 70", got)
	}
	if got := covered(nil, interval{0, 100}); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}

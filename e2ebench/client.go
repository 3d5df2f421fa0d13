package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// clients is the closed loop's size: two clients, each sending its
// next job only after the previous one's trailer arrived — as many as
// asimd's default job slots, so the servers run full without queueing.
const clients = 2

// jobResult is what one client saw of one job.
type jobResult struct {
	class   string
	latency time.Duration // POST to trailer
	header  time.Duration // POST to response headers: admit, queue, compile or plan
	bytes   int64         // run-line bytes, newlines included
	runs    int           // run lines delivered
	err     error         // non-200, truncated stream, trailer error or mismatch
	// Traced phases only: the spans the front server recorded under
	// the job's trace id, and those of every shard.
	front, shards []telemetry.Span
}

// phaseResult is one topology's phase of one round.
type phaseResult struct {
	topo   string
	traced bool
	wall   time.Duration // first POST to last trailer
	steal  float64       // share of the host's CPU time stolen meanwhile
	jobs   []jobResult
	heapMB float64 // live heap after a forced GC at phase end

	// Traced phases only: per-layer deltas over the phase.
	cacheHits int64
	dropped   int64
	store     storeCounts
	wire      wireCounts
}

func (p *phaseResult) runs() int {
	n := 0
	for _, j := range p.jobs {
		n += j.runs
	}
	return n
}

// ran is the phase's wall time in seconds less the share of it the
// hypervisor gave the host's CPUs to other guests (see refSpeed).
func (p *phaseResult) ran() float64 { return p.wall.Seconds() * (1 - p.steal) }

// firstErr is the first failed job's error, or nil.
func (p *phaseResult) firstErr() error {
	for _, j := range p.jobs {
		if j.err != nil {
			return fmt.Errorf("%s job: %w", j.class, j.err)
		}
	}
	return nil
}

type storeCounts struct{ appends, checkpoints, results, bytes, nanos int64 }

func (m *storeMeter) counts() storeCounts {
	if m == nil {
		return storeCounts{}
	}
	return storeCounts{m.appends.Load(), m.checkpoints.Load(), m.results.Load(), m.bytes.Load(), m.nanos.Load()}
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{a.appends - b.appends, a.checkpoints - b.checkpoints, a.results - b.results, a.bytes - b.bytes, a.nanos - b.nanos}
}

type wireCounts struct{ chunks, bytes, checkpoints int64 }

func (m *wireMeter) counts() wireCounts {
	if m == nil {
		return wireCounts{}
	}
	return wireCounts{m.chunks.Load(), m.bytes.Load(), m.checkpoints.Load()}
}

func (a wireCounts) sub(b wireCounts) wireCounts {
	return wireCounts{a.chunks - b.chunks, a.bytes - b.bytes, a.checkpoints - b.checkpoints}
}

// runPhase drives jobs through d with the closed loop of clients and
// checks every job against refs; tag prefixes the jobs' trace ids,
// which must not repeat within a deployment. It returns once every
// client has its last trailer (the phase is drained) and the heap is
// measured; the caller tears d down.
func runPhase(ctx context.Context, d *deployment, tag string, jobs []job, refs map[string][][]byte, traced bool) phaseResult {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	hits0, store0, wire0 := d.cacheHits(), d.appends.counts(), d.wire.counts()
	noise0 := readNoise()
	res := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				trace := fmt.Sprintf("%s-%s-%d", tag, d.name, i)
				r := post(ctx, hc, d.front, jobs[i].req, refs[jobs[i].key()], trace)
				r.class = jobs[i].class
				if traced && r.err == nil {
					r.err = fetchSpans(ctx, hc, d, trace, &r)
				}
				res[i] = r
			}
		}()
	}
	wg.Wait()
	p := phaseResult{topo: d.name, traced: traced, wall: time.Since(start), jobs: res}
	p.steal = readNoise().stealSince(noise0)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	if traced {
		p.cacheHits = d.cacheHits() - hits0
		p.dropped = d.dropped()
		p.store = d.appends.counts().sub(store0)
		p.wire = d.wire.counts().sub(wire0)
	}
	return p
}

var donePrefix = []byte(`{"done":`)

// post sends one job and reads its whole NDJSON stream. When ref is
// non-nil the run lines, sorted by index, must equal ref byte for
// byte and the trailer must report done without error.
func post(ctx context.Context, hc *http.Client, base string, req service.JobRequest, ref [][]byte, trace string) jobResult {
	var r jobResult
	body, err := json.Marshal(req)
	if err != nil {
		r.err = fmt.Errorf("encode job: %w", err)
		return r
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.err = fmt.Errorf("build request: %w", err)
		return r
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(telemetry.TraceHeader, trace)
	start := time.Now()
	resp, err := hc.Do(hreq)
	if err != nil {
		r.err = fmt.Errorf("post: %w", err)
		return r
	}
	defer resp.Body.Close()
	r.header = time.Since(start)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the failure
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return r
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	lines, err := readStream(br)
	r.latency = time.Since(start)
	if err == nil {
		// The stream must end at the trailer; reading to EOF also
		// leaves the connection fit for the client's next job.
		if _, rerr := br.ReadByte(); !errors.Is(rerr, io.EOF) {
			err = errors.New("stream continues after the trailer")
		}
	}
	r.runs = len(lines)
	for _, l := range lines {
		r.bytes += int64(len(l.data)) + 1
	}
	if err == nil && ref != nil {
		err = compare(lines, ref)
	}
	r.err = err
	return r
}

// runLine is one streamed run line and the index it carries.
type runLine struct {
	index int
	data  []byte
}

// readStream consumes a job stream up to its trailer: a header line,
// run lines in any order, and a done trailer without error.
func readStream(br *bufio.Reader) ([]runLine, error) {
	head, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("stream header: %w", err)
	}
	var hdr service.JobHeader
	if err := json.Unmarshal(head, &hdr); err != nil || hdr.Job == "" {
		return nil, fmt.Errorf("stream header %q is not a job header", bytes.TrimSpace(head))
	}
	var lines []runLine
	for {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			return lines, fmt.Errorf("stream truncated after %d run lines", len(lines))
		}
		if err != nil {
			return lines, fmt.Errorf("read stream: %w", err)
		}
		line = line[:len(line)-1]
		switch {
		case bytes.HasPrefix(line, runMark):
			rest := line[len(runMark):]
			end := bytes.IndexByte(rest, ',')
			idx, err := strconv.Atoi(string(rest[:max(end, 0)]))
			if end < 0 || err != nil {
				return lines, fmt.Errorf("run line without an index: %q", line)
			}
			lines = append(lines, runLine{idx, line})
		case bytes.HasPrefix(line, donePrefix):
			var tr service.JobTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				return lines, fmt.Errorf("trailer: %w", err)
			}
			if !tr.Done || tr.Err != "" {
				return lines, fmt.Errorf("job failed: %s", tr.Err)
			}
			return lines, nil
		default:
			return lines, fmt.Errorf("unexpected stream line %q", line)
		}
	}
}

// compare checks streamed run lines against the reference: each index
// exactly once and every line byte-identical.
func compare(lines []runLine, ref [][]byte) error {
	if len(lines) != len(ref) {
		return fmt.Errorf("%d run lines, want %d", len(lines), len(ref))
	}
	seen := make([]bool, len(ref))
	for _, l := range lines {
		if l.index < 0 || l.index >= len(ref) || seen[l.index] {
			return fmt.Errorf("run index %d out of range or repeated", l.index)
		}
		seen[l.index] = true
		if !bytes.Equal(l.data, ref[l.index]) {
			return fmt.Errorf("run %d: line differs from the reference", l.index)
		}
	}
	return nil
}

// fetchSpans reads the job's spans back through GET /v1/trace/{id}:
// the front server's, and for the cluster each shard's under the same
// fabric-wide trace id.
func fetchSpans(ctx context.Context, hc *http.Client, d *deployment, trace string, r *jobResult) error {
	var err error
	if r.front, err = getSpans(ctx, hc, d.front, trace); err != nil {
		return err
	}
	for _, sh := range d.shards {
		spans, err := getSpans(ctx, hc, sh, trace)
		if err != nil {
			return err
		}
		r.shards = append(r.shards, spans...)
	}
	return nil
}

func getSpans(ctx context.Context, hc *http.Client, base, trace string) ([]telemetry.Span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/trace/"+trace, nil)
	if err != nil {
		return nil, fmt.Errorf("trace request: %w", err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("get trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil // a shard the job's chunks never reached
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("get trace %s: status %d", trace, resp.StatusCode)
	}
	var spans []telemetry.Span
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var sp telemetry.Span
		if err := dec.Decode(&sp); err != nil {
			return nil, fmt.Errorf("decode trace %s: %w", trace, err)
		}
		spans = append(spans, sp)
	}
	return spans, nil
}

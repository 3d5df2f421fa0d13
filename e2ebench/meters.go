package main

import (
	"bytes"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/durable"
)

// storeMeter wraps the durable topology's FileStore in a traced phase:
// it counts Append calls by record kind and payload bytes, and sums
// the wall time spent inside Append. Appends come concurrently from
// engine workers of both job slots, so the summed time can exceed the
// phase's wall time.
type storeMeter struct {
	durable.Store
	appends     atomic.Int64
	checkpoints atomic.Int64
	results     atomic.Int64
	bytes       atomic.Int64
	nanos       atomic.Int64
}

func (m *storeMeter) Append(job string, rec durable.Record) error {
	start := time.Now()
	err := m.Store.Append(job, rec)
	m.nanos.Add(int64(time.Since(start)))
	m.appends.Add(1)
	m.bytes.Add(int64(len(rec.Data)))
	switch rec.Kind {
	case durable.KindCheckpoint:
		m.checkpoints.Add(1)
	case durable.KindResult:
		m.results.Add(1)
	}
	return err
}

// wireMeter is the coordinator's chunk transport in a traced cluster
// phase: it counts chunk requests and, in the streams shards send
// back, the run and checkpoint lines and their bytes. Each stream's
// header and trailer are left out of the bytes: they carry shard-local
// job ids and wall-clock figures, which would make the count vary run
// to run.
type wireMeter struct {
	base        http.RoundTripper
	chunks      atomic.Int64
	bytes       atomic.Int64
	checkpoints atomic.Int64
}

func (m *wireMeter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := m.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	m.chunks.Add(1)
	resp.Body = &meteredBody{ReadCloser: resp.Body, m: m}
	return resp, nil
}

var (
	// checkpointMark opens every streamed checkpoint line (the leading
	// field of service.CheckpointLine); runMark opens every run line.
	checkpointMark = []byte(`{"checkpoint":true`)
	runMark        = []byte(`{"index":`)
)

// meteredBody classifies a chunk stream's lines as the coordinator
// reads it. head keeps the current line's first bytes, enough to
// recognize its kind, and n its length so far.
type meteredBody struct {
	io.ReadCloser
	m    *wireMeter
	head []byte
	n    int64
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	for rest := p[:n]; len(rest) > 0; {
		end := bytes.IndexByte(rest, '\n')
		part := rest
		if end >= 0 {
			part = rest[:end+1]
		}
		if room := len(checkpointMark) - len(b.head); room > 0 {
			b.head = append(b.head, part[:min(room, len(part))]...)
		}
		b.n += int64(len(part))
		rest = rest[len(part):]
		if end < 0 {
			break
		}
		switch {
		case bytes.HasPrefix(b.head, checkpointMark):
			b.m.checkpoints.Add(1)
			b.m.bytes.Add(b.n)
		case bytes.HasPrefix(b.head, runMark):
			b.m.bytes.Add(b.n)
		}
		b.head, b.n = b.head[:0], 0
	}
	return n, err
}

package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Topology names, in the order a round runs them.
var topologies = []string{"single", "durable", "cluster"}

// tracedSpans is the span-ring capacity of every server in a traced
// phase: far above what one phase records, so Tracer.Dropped stays 0
// and the span-derived numbers are complete.
const tracedSpans = 1 << 16

// deployment is one booted topology: the URL clients post to, the
// engine-bearing servers behind it, and what tearing it down releases.
type deployment struct {
	name    string
	front   string            // base URL of the server clients post to
	engines []*service.Server // servers that execute campaigns
	shards  []string          // base URLs of the cluster's shards
	coord   *cluster.Coordinator
	tracers []*telemetry.Tracer

	store     *durable.FileStore
	dir       string      // the durable store's fresh state dir
	appends   *storeMeter // traced durable phases only
	wire      *wireMeter  // traced cluster phases only
	shardHTTP *http.Transport

	listeners []*listener
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan error // Serve's return, after Shutdown
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// serviceConfig is asimd's configuration at its flag defaults — what
// an operator gets from a bare `asimd` (or `asimd -shard`).
func serviceConfig(shard bool) service.Config {
	fs := flag.NewFlagSet("asimd", flag.ContinueOnError)
	f := service.RegisterFlags(fs)
	_ = fs.Parse(nil) // no arguments: every flag at its default
	cfg := f.Config()
	cfg.ShardMode = shard
	return cfg
}

// coordinatorConfig is asimcoord's configuration at its flag defaults
// over the given shards.
func coordinatorConfig(shards []string) cluster.Config {
	fs := flag.NewFlagSet("asimcoord", flag.ContinueOnError)
	f := cluster.RegisterFlags(fs)
	_ = fs.Parse(nil) // no arguments: every flag at its default
	cfg := f.Config()
	cfg.Shards = shards
	return cfg
}

// boot starts a fresh deployment of the named topology: new servers,
// new caches and planners, and for durable a new state dir under
// scratch. traced installs the per-layer meters (the timing store
// wrapper, the counting chunk transport) and rings large enough to
// keep every span; an untraced deployment is exactly what the daemons
// run.
func boot(name, scratch string, traced bool) (d *deployment, err error) {
	d = &deployment{name: name}
	defer func() {
		if err != nil {
			_ = d.close() // the boot error is the one to report
		}
	}()
	tracer := func() *telemetry.Tracer {
		if !traced {
			return nil // the server's default ring
		}
		t := telemetry.NewTracer(tracedSpans)
		d.tracers = append(d.tracers, t)
		return t
	}
	start := func(h http.Handler) (string, error) {
		l, err := listen(h)
		if err != nil {
			return "", err
		}
		d.listeners = append(d.listeners, l)
		return l.url, nil
	}

	switch name {
	case "single", "durable":
		cfg := serviceConfig(false)
		cfg.Tracer = tracer()
		if name == "durable" {
			if d.dir, err = os.MkdirTemp(scratch, "state-"); err != nil {
				return d, fmt.Errorf("state dir: %w", err)
			}
			if d.store, err = durable.OpenFileStore(d.dir); err != nil {
				return d, fmt.Errorf("durable store: %w", err)
			}
			cfg.Store = d.store
			if traced {
				d.appends = &storeMeter{Store: d.store}
				cfg.Store = d.appends
			}
		}
		srv := service.New(cfg)
		d.engines = append(d.engines, srv)
		if d.front, err = start(srv); err != nil {
			return d, err
		}
	case "cluster":
		for i := 0; i < 2; i++ {
			cfg := serviceConfig(true)
			cfg.Tracer = tracer()
			srv := service.New(cfg)
			url, err := start(srv)
			if err != nil {
				return d, err
			}
			d.engines = append(d.engines, srv)
			d.shards = append(d.shards, url)
		}
		cfg := coordinatorConfig(d.shards)
		cfg.Tracer = tracer()
		// A transport of the deployment's own, so teardown closes its
		// idle shard connections; otherwise what asimcoord's default
		// client uses.
		d.shardHTTP = http.DefaultTransport.(*http.Transport).Clone()
		var rt http.RoundTripper = d.shardHTTP
		if traced {
			d.wire = &wireMeter{base: d.shardHTTP}
			rt = d.wire
		}
		cfg.Client = &http.Client{Transport: rt}
		if d.coord, err = cluster.New(cfg); err != nil {
			return d, fmt.Errorf("coordinator: %w", err)
		}
		if d.front, err = start(d.coord); err != nil {
			return d, err
		}
	default:
		return d, fmt.Errorf("unknown topology %q", name)
	}
	return d, nil
}

// dropped sums the spans every traced ring evicted.
func (d *deployment) dropped() int64 {
	var n int64
	for _, t := range d.tracers {
		n += t.Dropped()
	}
	return n
}

// cacheHits sums the program-cache hits of the engine-bearing servers.
func (d *deployment) cacheHits() int64 {
	var n int64
	for _, s := range d.engines {
		n += s.Cache().Hits()
	}
	return n
}

// close tears the deployment down in dependency order — coordinator
// prober, then every listener (waiting for Serve to return), then the
// store — and removes the state dir. Safe on a half-booted deployment.
func (d *deployment) close() error {
	var errs []error
	if d.coord != nil {
		d.coord.Close()
	}
	// Front first: the coordinator's listener closes before its shards.
	for i := len(d.listeners) - 1; i >= 0; i-- {
		l := d.listeners[i]
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := l.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown %s: %w", l.url, err))
			_ = l.srv.Close() // force; the Shutdown error is the one reported
		}
		cancel()
		if err := <-l.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve %s: %w", l.url, err))
		}
	}
	if d.shardHTTP != nil {
		d.shardHTTP.CloseIdleConnections()
	}
	if d.store != nil {
		if err := d.store.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close store: %w", err))
		}
	}
	if d.dir != "" {
		if err := os.RemoveAll(d.dir); err != nil {
			errs = append(errs, fmt.Errorf("remove state dir: %w", err))
		}
	}
	return errors.Join(errs...)
}

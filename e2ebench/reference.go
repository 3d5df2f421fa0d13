package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/service"
)

// references computes, in-process and without any server, the run
// lines every distinct request in jobs must stream: the request's runs
// built the way the service builds them, executed by
// campaign.Engine.Execute and rendered by service.ResultLine, in index
// order. Every job on every topology is checked against these bytes.
func references(ctx context.Context, jobs []job) (map[string][][]byte, error) {
	refs := map[string][][]byte{}
	for _, j := range jobs {
		k := j.key()
		if refs[k] != nil {
			continue
		}
		runs, err := buildRuns(j.req)
		if err != nil {
			return nil, fmt.Errorf("%s job: %w", j.class, err)
		}
		results, err := campaign.Engine{}.Execute(ctx, runs)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", j.class, err)
		}
		lines := make([][]byte, len(results))
		for i, res := range results {
			if lines[i], err = json.Marshal(service.ResultLine(res)); err != nil {
				return nil, fmt.Errorf("%s reference line: %w", j.class, err)
			}
		}
		refs[k] = lines
	}
	return refs, nil
}

// buildRuns mirrors the service's job construction for the request
// shape the workloads generate: a spec fleet named "job".
func buildRuns(req service.JobRequest) ([]campaign.Run, error) {
	spec, err := core.ParseString("job", req.Spec)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	backend := core.Backend(req.Backend)
	if backend == "" {
		backend = core.Compiled
	}
	prog, err := core.Compile(spec, backend)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return campaign.Fleet("job", prog, req.Runs, req.Cycles), nil
}

package main

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/service"
)

// warmUp posts every warm-up request to the deployment before its
// phase is timed. On the cluster each shard is also warmed directly:
// a chunk may spill to either shard, and a cold one would compile
// inside the phase.
func warmUp(ctx context.Context, d *deployment, warm []service.JobRequest) error {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	for _, base := range append([]string{d.front}, d.shards...) {
		for i, req := range warm {
			r := post(ctx, hc, base, req, nil, fmt.Sprintf("warm-%s-%d", d.name, i))
			if r.err != nil {
				return fmt.Errorf("warm-up job %d on %s: %w", i, base, r.err)
			}
		}
	}
	return nil
}

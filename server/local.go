package server

import (
	"context"

	"cgraph"
	"cgraph/api"
)

// localClient adapts a Service to the cgraph.Client contract in-process:
// the same api wire types, the same error codes, the same watch semantics
// as the HTTP client in package client — without a network hop.
type localClient struct {
	svc *Service
	reg Registry
}

// NewLocalClient returns the in-process cgraph.Client over svc. The
// registry resolves algorithm names; pass nil for DefaultRegistry. Code
// written against cgraph.Client runs unchanged against this client and the
// HTTP client of package client.
func NewLocalClient(svc *Service, reg Registry) cgraph.Client {
	if reg == nil {
		reg = DefaultRegistry()
	}
	return &localClient{svc: svc, reg: reg}
}

// call runs one Service operation on behalf of the client: a done ctx
// fails it before it starts, and a service-side failure comes back as the
// *api.Error the HTTP client would decode from the same call.
func call[T any](ctx context.Context, op func() (T, *api.Error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	v, aerr := op()
	if aerr != nil {
		return zero, aerr
	}
	return v, nil
}

// infallible adapts an operation that cannot fail to call.
func infallible[T any](op func() T) func() (T, *api.Error) {
	return func() (T, *api.Error) { return op(), nil }
}

func (c *localClient) Submit(ctx context.Context, spec api.JobSpec) (api.JobStatus, error) {
	return call(ctx, func() (api.JobStatus, *api.Error) { return c.svc.SubmitSpec(ctx, c.reg, spec) })
}

func (c *localClient) Get(ctx context.Context, id string) (api.JobStatus, error) {
	return call(ctx, func() (api.JobStatus, *api.Error) { return c.svc.StatusOf(id) })
}

func (c *localClient) List(ctx context.Context, opts api.ListOptions) (api.JobList, error) {
	return call(ctx, func() (api.JobList, *api.Error) { return c.svc.ListJobs(opts) })
}

func (c *localClient) Watch(ctx context.Context, id string) (<-chan api.Event, error) {
	return call(ctx, func() (<-chan api.Event, *api.Error) { return c.svc.WatchJobFrom(ctx, id, 0) })
}

func (c *localClient) Results(ctx context.Context, id string, opts api.ResultsOptions) (api.Results, error) {
	return call(ctx, func() (api.Results, *api.Error) { return c.svc.ResultsOf(id, opts) })
}

func (c *localClient) Cancel(ctx context.Context, id string) (api.JobStatus, error) {
	return call(ctx, func() (api.JobStatus, *api.Error) { return c.svc.CancelJob(id) })
}

func (c *localClient) AddSnapshot(ctx context.Context, snap api.Snapshot) (api.SnapshotAck, error) {
	return call(ctx, func() (api.SnapshotAck, *api.Error) { return c.svc.IngestSnapshot(snap) })
}

func (c *localClient) ApplyDelta(ctx context.Context, delta api.Delta) (api.DeltaAck, error) {
	return call(ctx, func() (api.DeltaAck, *api.Error) { return c.svc.IngestDelta(ctx, delta) })
}

func (c *localClient) JobTrace(ctx context.Context, id string) (api.JobTrace, error) {
	return call(ctx, func() (api.JobTrace, *api.Error) { return c.svc.TraceOf(id) })
}

func (c *localClient) JobSpans(ctx context.Context, id string) (api.JobSpans, error) {
	return call(ctx, func() (api.JobSpans, *api.Error) { return c.svc.SpansOf(id) })
}

func (c *localClient) TraceSpans(ctx context.Context, traceID string) (api.SpanList, error) {
	return call(ctx, func() (api.SpanList, *api.Error) { return c.svc.TraceSpansOf(traceID) })
}

func (c *localClient) RoundTrace(ctx context.Context, opts api.TraceOptions) (api.RoundTraces, error) {
	return call(ctx, infallible(func() api.RoundTraces { return c.svc.RoundTraces(opts.Limit) }))
}

func (c *localClient) SchedInfo(ctx context.Context) (api.SchedInfo, error) {
	return call(ctx, infallible(c.svc.SchedInfo))
}

func (c *localClient) Metrics(ctx context.Context) (api.Metrics, error) {
	return call(ctx, infallible(c.svc.MetricsInfo))
}

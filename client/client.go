// Package client is the Go HTTP client of the CGraph job service: a
// cgraph.Client implementation speaking the versioned wire contract of
// package api to a serve-mode instance (cmd/cgraph-serve or any
// server.Service handler). It is interchangeable with the in-process
// client returned by server.NewLocalClient — same types, same error
// codes, same watch semantics — so programs written against cgraph.Client
// run unchanged embedded or remote.
//
//	c := client.New("http://localhost:8040")
//	st, err := c.Submit(ctx, api.JobSpec{Algo: "pagerank"})
//	events, err := c.Watch(ctx, st.ID)
//	for ev := range events {
//		// queued, running, progress…, done
//	}
//	res, err := c.Results(ctx, st.ID, api.ResultsOptions{Top: 10})
//
// Service-side failures are returned as *api.Error with machine-readable
// codes (api.IsCode / errors.As); transport failures are returned as the
// underlying error. Idempotent requests (GETs) are retried with backoff on
// transport errors and 5xx responses; mutating requests are never retried.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/internal/span"
)

// Client speaks the /v1 control plane over HTTP. The zero value is not
// usable; construct with New.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	log     *slog.Logger
	// limiter, when set, paces the mutating write paths (Submit,
	// ApplyDelta); nil means unlimited.
	limiter *tokenBucket

	// watchReconnects counts SSE streams that dropped before their
	// terminal event and were reconnected — previously a silent recovery.
	watchReconnects atomic.Int64
	// throttled counts limiter acquisitions that had to wait.
	throttled atomic.Int64
}

var _ cgraph.Client = (*Client)(nil)

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient). The client must follow redirects for the legacy
// routes to keep working; the default does.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times idempotent (GET) requests are retried
// after transport errors or 5xx responses (default 2), waiting backoff,
// 2·backoff, … between attempts (default 100ms). Mutating requests are
// never retried. Negative values are clamped to 0 (no retries — the
// request itself always runs once).
func WithRetries(n int, backoff time.Duration) Option {
	return func(c *Client) {
		c.retries = max(n, 0)
		c.backoff = backoff
	}
}

// WithLogger sets the structured logger for client-side diagnostics (watch
// reconnects). The default discards them.
func WithLogger(log *slog.Logger) Option {
	return func(c *Client) {
		if log != nil {
			c.log = log
		}
	}
}

// WithRateLimit paces the client's write paths (Submit, ApplyDelta) with a
// token bucket: sustained throughput is capped at rps requests per second,
// with up to burst requests (minimum 1) passing back to back from a full
// bucket. Calls beyond the budget block until a token accrues or their
// context ends — backpressure on the caller, not an error — so a delta
// firehose cannot trip the service's ingest admission cap (HTTP 429) when
// smoothing suffices. Reads are never paced. rps <= 0 disables the limit.
func WithRateLimit(rps float64, burst int) Option {
	return func(c *Client) {
		if rps <= 0 {
			c.limiter = nil
			return
		}
		c.limiter = newTokenBucket(rps, burst)
	}
}

// Stats is a point-in-time snapshot of the client's internal counters.
type Stats struct {
	// WatchReconnects counts SSE watch streams that dropped before their
	// terminal event and were transparently reconnected.
	WatchReconnects int64
	// Throttled counts WithRateLimit acquisitions that had to wait for a
	// token (calls delayed by the client-side pacing).
	Throttled int64
}

// Stats reports the client's internal counters.
func (c *Client) Stats() Stats {
	return Stats{
		WatchReconnects: c.watchReconnects.Load(),
		Throttled:       c.throttled.Load(),
	}
}

// tokenBucket is a minimal blocking token bucket: tokens accrue at rate per
// second up to burst, one token per acquisition.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rps float64, burst int) *tokenBucket {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &tokenBucket{rate: rps, burst: b, tokens: b, last: time.Now()}
}

// wait blocks until a token is available or ctx ends; waited reports
// whether the call had to sleep.
func (tb *tokenBucket) wait(ctx context.Context) (waited bool, err error) {
	for {
		tb.mu.Lock()
		now := time.Now()
		tb.tokens = math.Min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
		tb.last = now
		if tb.tokens >= 1 {
			tb.tokens--
			tb.mu.Unlock()
			return waited, nil
		}
		need := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
		tb.mu.Unlock()
		waited = true
		select {
		case <-ctx.Done():
			return waited, ctx.Err()
		case <-time.After(need):
		}
	}
}

// acquire charges one limiter token when a limit is configured.
func (c *Client) acquire(ctx context.Context) error {
	if c.limiter == nil {
		return nil
	}
	waited, err := c.limiter.wait(ctx)
	if waited {
		c.throttled.Add(1)
	}
	return err
}

// New builds a client for the service at baseURL (e.g.
// "http://localhost:8040"). The URL is used as-is apart from a trailing
// slash; a malformed URL surfaces on the first request.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		retries: 2,
		backoff: 100 * time.Millisecond,
		log:     slog.New(slog.DiscardHandler),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one request and decodes the JSON response into out (unless
// out is nil). Non-2xx responses are decoded into *api.Error. GETs are
// retried on transport errors and 5xx responses.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	attempts := 1
	if method == http.MethodGet {
		attempts += c.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.backoff << (attempt - 1)):
			}
		}
		var rd io.Reader
		if in != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		c.propagate(ctx, req)
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		retry, err := c.handle(resp, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retry {
			return err
		}
	}
	return lastErr
}

// propagate stamps the wire-contract version and W3C trace-context headers
// on one outbound request: a span context carried by ctx continues the
// caller's trace (the service's http.request span parents under it);
// otherwise a fresh context is minted, so every call is traceable and the
// caller can correlate responses via the echoed X-Trace-ID header.
func (c *Client) propagate(ctx context.Context, req *http.Request) {
	req.Header.Set(api.VersionHeader, api.Version)
	sc := span.FromContext(ctx)
	if !sc.Valid() {
		sc = span.Context{Trace: span.NewTraceID(), Span: span.NewSpanID()}
	}
	req.Header.Set(span.Traceparent, sc.Traceparent())
}

// handle consumes one response; retry reports whether the failure is a
// server-side 5xx worth retrying on an idempotent request.
func (c *Client) handle(resp *http.Response, out any) (retry bool, err error) {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return false, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return false, fmt.Errorf("client: decode response: %w", err)
		}
		return false, nil
	}
	var eb api.ErrorBody
	if derr := json.NewDecoder(resp.Body).Decode(&eb); derr == nil && eb.Error != nil {
		return resp.StatusCode >= 500, eb.Error
	}
	return resp.StatusCode >= 500, &api.Error{
		Code:    api.CodeForHTTPStatus(resp.StatusCode),
		Message: fmt.Sprintf("%s (no structured error body)", resp.Status),
	}
}

// Submit registers a job and returns its initial status. With WithRateLimit
// configured, the call first waits for a pacing token.
func (c *Client) Submit(ctx context.Context, spec api.JobSpec) (api.JobStatus, error) {
	if err := c.acquire(ctx); err != nil {
		return api.JobStatus{}, err
	}
	var st api.JobStatus
	err := c.do(ctx, http.MethodPost, api.PathPrefix+"/jobs", nil, spec, &st)
	return st, err
}

// Get returns one job's current status.
func (c *Client) Get(ctx context.Context, id string) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/jobs/"+url.PathEscape(id), nil, nil, &st)
	return st, err
}

// List returns a page of the job listing (compacted history first, then
// live jobs in submission order), filtered by state and labels when the
// options ask for it.
func (c *Client) List(ctx context.Context, opts api.ListOptions) (api.JobList, error) {
	q := url.Values{}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Offset > 0 {
		q.Set("offset", strconv.Itoa(opts.Offset))
	}
	if opts.State != "" {
		q.Set("state", string(opts.State))
	}
	// Sorted so requests are deterministic (caches, logs, tests).
	keys := make([]string, 0, len(opts.Labels))
	for k := range opts.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q.Add("label", k+"="+opts.Labels[k])
	}
	var list api.JobList
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/jobs", q, nil, &list)
	return list, err
}

// Results returns a finished job's converged values.
func (c *Client) Results(ctx context.Context, id string, opts api.ResultsOptions) (api.Results, error) {
	if opts.Top < 0 {
		// Rejected client-side with the code and message the in-process
		// client produces, keeping the two transports in lockstep.
		return api.Results{}, api.Errorf(api.CodeBadRequest, "negative top %d", opts.Top)
	}
	q := url.Values{}
	if opts.Top > 0 {
		q.Set("top", strconv.Itoa(opts.Top))
	}
	var res api.Results
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/jobs/"+url.PathEscape(id)+"/results", q, nil, &res)
	return res, err
}

// Cancel retires the job and returns its status as of the request.
func (c *Client) Cancel(ctx context.Context, id string) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.do(ctx, http.MethodDelete, api.PathPrefix+"/jobs/"+url.PathEscape(id), nil, nil, &st)
	return st, err
}

// AddSnapshot ingests a new graph version.
func (c *Client) AddSnapshot(ctx context.Context, snap api.Snapshot) (api.SnapshotAck, error) {
	var ack api.SnapshotAck
	err := c.do(ctx, http.MethodPost, api.PathPrefix+"/snapshots", nil, snap, &ack)
	return ack, err
}

// ApplyDelta streams one edge-mutation batch into the service's ingestion
// pipeline. Like other mutating requests it is never retried. With
// WithRateLimit configured, the call first waits for a pacing token.
func (c *Client) ApplyDelta(ctx context.Context, delta api.Delta) (api.DeltaAck, error) {
	if err := c.acquire(ctx); err != nil {
		return api.DeltaAck{}, err
	}
	var ack api.DeltaAck
	err := c.do(ctx, http.MethodPost, api.PathPrefix+"/deltas", nil, delta, &ack)
	return ack, err
}

// JobTrace returns one job's round-by-round timeline: the lifecycle
// envelope plus the job's retained "job.round" spans, live or compacted.
func (c *Client) JobTrace(ctx context.Context, id string) (api.JobTrace, error) {
	var tr api.JobTrace
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/jobs/"+url.PathEscape(id)+"/trace", nil, nil, &tr)
	return tr, err
}

// JobSpans returns one job's retained span tree — job-attributed spans
// only, identical to what the in-process client yields — plus its resource
// attribution.
func (c *Client) JobSpans(ctx context.Context, id string) (api.JobSpans, error) {
	var js api.JobSpans
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/jobs/"+url.PathEscape(id)+"/spans", nil, nil, &js)
	return js, err
}

// TraceSpans returns every retained span of one trace (32-hex trace ID),
// transport and ingest spans included, oldest first.
func (c *Client) TraceSpans(ctx context.Context, traceID string) (api.SpanList, error) {
	q := url.Values{}
	q.Set("trace_id", traceID)
	var sl api.SpanList
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/trace/spans", q, nil, &sl)
	return sl, err
}

// Healthz probes liveness. It is not part of the cgraph.Client contract —
// probes are deployment plumbing, not job-service semantics — so only the
// concrete *Client carries it.
func (c *Client) Healthz(ctx context.Context) (api.Health, error) {
	var h api.Health
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/healthz", nil, nil, &h)
	return h, err
}

// Readyz probes readiness. A not-ready service answers 503 with the checks
// itemized; the *api.Error carries the envelope, so callers inspect
// Readyz's Health only on nil error.
func (c *Client) Readyz(ctx context.Context) (api.Health, error) {
	var h api.Health
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/readyz", nil, nil, &h)
	return h, err
}

// Version reports the service's build and wire-contract version.
func (c *Client) Version(ctx context.Context) (api.VersionInfo, error) {
	var v api.VersionInfo
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/version", nil, nil, &v)
	return v, err
}

// RoundTrace returns the service's retained round-trace records, oldest
// first.
func (c *Client) RoundTrace(ctx context.Context, opts api.TraceOptions) (api.RoundTraces, error) {
	q := url.Values{}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	var rt api.RoundTraces
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/trace/rounds", q, nil, &rt)
	return rt, err
}

// SchedInfo reports the scheduler's last plan.
func (c *Client) SchedInfo(ctx context.Context) (api.SchedInfo, error) {
	var si api.SchedInfo
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/sched", nil, nil, &si)
	return si, err
}

// Metrics reports job-state counts, round-loop progress, and scheduler
// state in structured form.
func (c *Client) Metrics(ctx context.Context) (api.Metrics, error) {
	var m api.Metrics
	err := c.do(ctx, http.MethodGet, api.PathPrefix+"/metrics", nil, nil, &m)
	return m, err
}

// Watch subscribes to the job's server-sent event stream: a replay of its
// lifecycle so far, then live progress and state events. A dropped
// connection is reconnected automatically with the standard SSE
// Last-Event-ID header carrying the last Seq seen, so the server resumes
// the stream where it broke instead of replaying history; up to the
// WithRetries budget of consecutive failed reconnects is spent (any
// delivered event refills it) before the channel closes. The channel also
// closes after a terminal state event or when ctx ends; call Get
// afterwards to distinguish a finished job from an exhausted reconnect
// budget if the last event seen was not terminal.
func (c *Client) Watch(ctx context.Context, id string) (<-chan api.Event, error) {
	resp, err := c.watchConnect(ctx, id, 0)
	if err != nil {
		return nil, err
	}
	ch := make(chan api.Event)
	//cgraph:spawn one SSE reader per Watch call, exits with the watch ctx
	go c.watchLoop(ctx, id, resp, ch)
	return ch, nil
}

// watchConnect opens one SSE stream, resuming after event `after` when
// positive.
func (c *Client) watchConnect(ctx context.Context, id string, after int64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+api.PathPrefix+"/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	c.propagate(ctx, req)
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: watch %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		_, herr := c.handle(resp, nil)
		if herr == nil {
			herr = &api.Error{Code: api.CodeForHTTPStatus(resp.StatusCode), Message: resp.Status}
		}
		return nil, herr
	}
	return resp, nil
}

// watchLoop drains SSE streams into ch, reconnecting with Last-Event-ID
// when a stream drops before the terminal event.
func (c *Client) watchLoop(ctx context.Context, id string, resp *http.Response, ch chan<- api.Event) {
	defer close(ch)
	var last int64
	attempts := 0
	for {
		if resp != nil {
			terminal, progressed := c.streamEvents(ctx, resp.Body, ch, &last)
			resp.Body.Close()
			resp = nil
			if terminal || ctx.Err() != nil {
				return
			}
			if progressed {
				attempts = 0
			}
		}
		if attempts >= c.retries {
			return
		}
		attempts++
		c.watchReconnects.Add(1)
		c.log.Warn("watch stream dropped, reconnecting",
			"job", id,
			"last_seq", last,
			"attempt", attempts,
			"budget", c.retries)
		select {
		case <-ctx.Done():
			return
		case <-time.After(c.backoff << (attempts - 1)):
		}
		r, err := c.watchConnect(ctx, id, last)
		if err != nil {
			// Structured 4xx answers will not heal by retrying (the job is
			// unknown, or the request is malformed); transport errors and
			// 5xx responses might.
			var ae *api.Error
			if errors.As(err, &ae) && ae.HTTPStatus() < 500 {
				return
			}
			continue
		}
		resp = r
	}
}

// streamEvents forwards one SSE stream's events, deduplicating against
// *last (a resumed replay may overlap). It reports whether a terminal
// event was delivered (or ctx ended) and whether any event advanced the
// stream.
func (c *Client) streamEvents(ctx context.Context, body io.Reader, ch chan<- api.Event, last *int64) (terminal, progressed bool) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case line == "":
			if len(data) == 0 {
				continue
			}
			var ev api.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return false, progressed
			}
			data = data[:0]
			if ev.Seq != 0 && ev.Seq <= *last {
				// Already delivered before the stream dropped.
				continue
			}
			select {
			case ch <- ev:
			case <-ctx.Done():
				return true, progressed
			}
			if ev.Seq > *last {
				*last = ev.Seq
			}
			progressed = true
			if ev.Terminal() {
				return true, progressed
			}
		default:
			// "id:" and "event:" fields duplicate the JSON document;
			// comments and unknown fields are ignored per the SSE spec.
		}
	}
	return false, progressed
}

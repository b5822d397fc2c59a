package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/change"
	"repro/internal/core"
	"repro/internal/cryptoapi"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/witness"
)

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

// CheckRequest is the /v1/check request body: a source bundle to analyze
// as one program.
type CheckRequest struct {
	// Sources maps file name → Java source.
	Sources map[string]string `json:"sources"`
	// Rules restricts the evaluated rule set to these IDs (default: all).
	Rules []string `json:"rules,omitempty"`
	// Context carries the Android facts rule R6 needs.
	Context *RuleContext `json:"context,omitempty"`
	// Why asks for witness traces per violation. Under degraded mode the
	// server may refuse and say so in the response.
	Why bool `json:"why,omitempty"`
	// BudgetSteps tightens the server's per-request step budget (it can
	// never loosen it).
	BudgetSteps int64 `json:"budget_steps,omitempty"`
	// TimeoutMs tightens the server's per-request deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// RuleContext mirrors rules.Context on the wire.
type RuleContext struct {
	Android       bool `json:"android,omitempty"`
	MinSDKVersion int  `json:"min_sdk,omitempty"`
	HasLPRNG      bool `json:"lprng,omitempty"`
}

// CheckResponse is the /v1/check response body.
type CheckResponse struct {
	Violations []Violation `json:"violations"`
	// Traces carries the witness traces when the request asked why and the
	// server was not degraded.
	Traces []witness.Trace `json:"traces,omitempty"`
	// Degraded advertises that the server is in degraded mode; Disabled
	// lists the request options it refused ("why").
	Degraded bool     `json:"degraded,omitempty"`
	Disabled []string `json:"disabled,omitempty"`
	// TraceID identifies this request's trace when the server runs with
	// tracing on (look it up at /debug/traces/<id>); absent otherwise.
	TraceID string `json:"trace_id,omitempty"`
	// RulesEpoch is the generation of the rule set that evaluated this
	// request; it bumps on every successful hot reload. Absent when the
	// server runs without rule packs.
	RulesEpoch int64 `json:"rules_epoch,omitempty"`
}

// Violation is one matched rule on the wire.
type Violation struct {
	Rule        string   `json:"rule"`
	Description string   `json:"description"`
	Formula     string   `json:"formula"`
	Objects     []Object `json:"objects"`
}

// Object locates one witness object of a violation.
type Object struct {
	Label string `json:"label"`
	Line  int32  `json:"line"`
}

// AnalyzeRequest is the /v1/analyze request body: a batch of code changes
// to abstract and diff (the DiffCode front-end as a service).
type AnalyzeRequest struct {
	Changes []ChangeSpec `json:"changes"`
	// Classes restricts extraction to these target classes (default: all).
	Classes   []string `json:"classes,omitempty"`
	TimeoutMs int64    `json:"timeout_ms,omitempty"`
}

// ChangeSpec is one old/new pair with optional provenance.
type ChangeSpec struct {
	Old     string `json:"old"`
	New     string `json:"new"`
	Project string `json:"project,omitempty"`
	Commit  string `json:"commit,omitempty"`
	File    string `json:"file,omitempty"`
	Message string `json:"message,omitempty"`
}

// AnalyzeResponse is the /v1/analyze response body. The batch is fault
// contained at change granularity: a change that panics or exhausts its
// budget carries an inline error while its siblings analyze normally.
type AnalyzeResponse struct {
	Results  []ChangeResult `json:"results"`
	Degraded bool           `json:"degraded,omitempty"`
	// TraceID identifies this request's trace when tracing is on.
	TraceID string `json:"trace_id,omitempty"`
}

// ChangeResult is the outcome for one change of the batch.
type ChangeResult struct {
	Index        int           `json:"index"`
	UsageChanges []UsageChange `json:"usage_changes,omitempty"`
	Error        *ErrorInfo    `json:"error,omitempty"`
}

// UsageChange is one semantic usage change on the wire.
type UsageChange struct {
	Class string `json:"class"`
	Label string `json:"label"`
	Text  string `json:"text"`
}

// ErrorBody is the uniform error envelope of every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo describes one failure in ledger vocabulary: Category is the
// resilience taxonomy ("panic", "budget", "io", "canceled") plus the
// server-boundary categories "request", "shed", and "draining".
type ErrorInfo struct {
	Status        int    `json:"status"`
	Category      string `json:"category"`
	Message       string `json:"message"`
	RetryAfterSec int64  `json:"retry_after_sec,omitempty"`
	// TraceID identifies the failed request's trace when tracing is on —
	// failed traces are always retained, so the ID is always resolvable at
	// /debug/traces/<id> until it ages out of the ring.
	TraceID string `json:"trace_id,omitempty"`
}

// ---------------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------------

// writeJSON writes v as a compact JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeError writes the uniform error envelope. When ctx carries a trace
// span the failure category annotates it (so tail-based retention keeps the
// trace) and the envelope names the trace; on an untraced ctx the envelope
// is byte-identical to the untraced build's.
func (s *Server) writeError(ctx context.Context, w http.ResponseWriter, status int, category, message string) {
	s.reg.Counter("serve.errors." + category).Inc()
	sp := trace.FromContext(ctx)
	sp.Annotate(category)
	writeJSON(w, status, ErrorBody{Error: ErrorInfo{
		Status: status, Category: category, Message: message, TraceID: sp.TraceID(),
	}})
}

// writeShed writes the 429 load-shed response with its Retry-After hint
// and feeds the degrader. A shed request's trace is annotated "shed" — the
// boundary category of the ledger taxonomy — and always retained.
func (s *Server) writeShed(ctx context.Context, w http.ResponseWriter, shed *shedInfo) {
	s.reg.Counter("serve.shed").Inc()
	s.reg.Counter("serve.shed." + shed.reason).Inc()
	s.deg.noteShed()
	sec := int64(shed.retryAfter / time.Second)
	if sec < 1 {
		sec = 1
	}
	sp := trace.FromContext(ctx)
	sp.Annotate("shed")
	w.Header().Set("Retry-After", strconv.FormatInt(sec, 10))
	writeJSON(w, http.StatusTooManyRequests, ErrorBody{Error: ErrorInfo{
		Status:        http.StatusTooManyRequests,
		Category:      "shed",
		Message:       "overloaded: " + shed.reason,
		RetryAfterSec: sec,
		TraceID:       sp.TraceID(),
	}})
}

// mapFailure converts a guarded analysis error into its HTTP surface,
// using the ledger taxonomy for the category.
func mapFailure(err error) (status int, category string) {
	switch resilience.Categorize(err) {
	case resilience.CatBudget:
		// The analysis ran out of time or steps: the gateway-timeout of a
		// one-process fleet.
		return http.StatusGatewayTimeout, "budget"
	case resilience.CatCanceled:
		// The client went away; the status is written to a dead connection
		// and matters only to the access log.
		return http.StatusRequestTimeout, "canceled"
	case resilience.CatPanic:
		return http.StatusUnprocessableEntity, "panic"
	default:
		return http.StatusUnprocessableEntity, "io"
	}
}

// api wraps an endpoint handler with the boundary the whole server shares:
// drain refusal, method check, body decode limit, per-request deadline,
// admission control, per-request tracing, and request/latency/failure
// telemetry.
func (s *Server) api(name string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter("serve." + name + ".requests").Inc()
		if s.draining.Load() {
			s.writeError(r.Context(), w, http.StatusServiceUnavailable, "draining", "server is draining")
			return
		}
		if r.Method != http.MethodPost {
			s.writeError(r.Context(), w, http.StatusMethodNotAllowed, "request", "use POST")
			return
		}
		s.inflight.Add(1)
		s.done.Add(1)
		defer func() {
			s.inflight.Add(-1)
			s.done.Done()
		}()
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)

		// The request's deadline starts before admission: time spent queued
		// is time the analysis no longer has.
		timeout := s.opts.RequestTimeout
		if ms := requestTimeoutMs(r); ms > 0 && time.Duration(ms)*time.Millisecond < timeout {
			timeout = time.Duration(ms) * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		// Root span: opened after the cheap boundary rejections (draining,
		// method) so the ring holds analysis requests, and before admission
		// so the queue wait is attributable. The keep/drop decision runs at
		// request end, when outcome and latency are known (tail-based).
		root := s.tracer.Root(name)
		if root != nil {
			ctx = trace.NewContext(ctx, root)
			w.Header().Set("X-Trace-Id", root.TraceID())
			defer func() {
				root.End()
				s.traces.Offer(trace.Finish(root))
			}()
		}

		qsp := root.Child("queue")
		release, shed := s.adm.acquire(ctx)
		qsp.End()
		if shed != nil {
			s.writeShed(ctx, w, shed)
			return
		}
		defer release()
		start := time.Now()
		h(ctx, w, r)
		// The exemplar links this histogram's worst case to a trace ID; with
		// tracing off the label is empty and this is a plain Observe.
		s.reg.Histogram("serve."+name+".latency_us").ObserveExemplar(time.Since(start).Microseconds(), root.TraceID())
	}
}

// requestTimeoutMs peeks the timeout_ms field out of the body without
// consuming it, via the X-Timeout-Ms header or the query string (the JSON
// field is honored too, but only after decode — admission needs the
// deadline first, so clients that care about shedding accuracy set the
// header).
func requestTimeoutMs(r *http.Request) int64 {
	v := r.Header.Get("X-Timeout-Ms")
	if v == "" {
		v = r.URL.Query().Get("timeout_ms")
	}
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return 0
	}
	return ms
}

// decode reads and unmarshals the request body.
func decode(r *http.Request, into any) error {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, into)
}

// ---------------------------------------------------------------------------
// /v1/check
// ---------------------------------------------------------------------------

func (s *Server) handleCheck(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if err := decode(r, &req); err != nil {
		s.writeError(ctx, w, http.StatusBadRequest, "request", "decoding request body: "+err.Error())
		return
	}
	if len(req.Sources) == 0 {
		s.writeError(ctx, w, http.StatusUnprocessableEntity, "io", "no sources in request")
		return
	}
	// One atomic load pins the rule-set generation for the whole request:
	// a concurrent hot reload affects the next request, never this one.
	rstate := s.rstate.Load()
	ruleSet := rstate.set
	if len(req.Rules) > 0 {
		ruleSet = nil
		for _, id := range req.Rules {
			rl := rstate.lookup(id)
			if rl == nil {
				s.writeError(ctx, w, http.StatusUnprocessableEntity, "io", fmt.Sprintf("unknown rule %q", id))
				return
			}
			ruleSet = append(ruleSet, rl)
		}
	}
	if ms := req.TimeoutMs; ms > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	copts := s.opts.Checker
	if req.BudgetSteps > 0 && (copts.BudgetSteps == 0 || req.BudgetSteps < copts.BudgetSteps) {
		copts.BudgetSteps = req.BudgetSteps
	}
	resp := CheckResponse{Violations: []Violation{}}
	why := req.Why
	if why && s.deg.degraded() {
		// Degradation ladder rung one: drop provenance, keep answering.
		why = false
		resp.Degraded = true
		resp.Disabled = append(resp.Disabled, "why")
		s.reg.Counter("serve.degraded.requests").Inc()
	}

	checker := core.NewChecker(ruleSet, copts)
	out, err := checker.CheckRequest(ctx, req.Sources, ruleContext(req.Context), why)
	if err != nil {
		status, category := mapFailure(err)
		s.reg.Counter("serve.check.failures").Inc()
		s.writeError(ctx, w, status, category, err.Error())
		return
	}
	for _, v := range out.Violations {
		wire := Violation{
			Rule:        v.Rule.ID,
			Description: v.Rule.Description,
			Formula:     v.Rule.Formula,
			Objects:     []Object{},
		}
		for _, o := range v.Objs {
			wire.Objects = append(wire.Objects, Object{Label: o.SiteLabel(), Line: o.Site.Line})
		}
		resp.Violations = append(resp.Violations, wire)
	}
	resp.Traces = out.Traces
	resp.TraceID = trace.FromContext(ctx).TraceID()
	resp.RulesEpoch = rstate.epoch
	writeJSON(w, http.StatusOK, resp)
}

func ruleContext(rc *RuleContext) rules.Context {
	if rc == nil {
		return rules.Context{}
	}
	return rules.Context{Android: rc.Android, MinSDKVersion: rc.MinSDKVersion, HasLPRNG: rc.HasLPRNG}
}

// ---------------------------------------------------------------------------
// /v1/analyze
// ---------------------------------------------------------------------------

func (s *Server) handleAnalyze(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := decode(r, &req); err != nil {
		s.writeError(ctx, w, http.StatusBadRequest, "request", "decoding request body: "+err.Error())
		return
	}
	if len(req.Changes) == 0 {
		s.writeError(ctx, w, http.StatusUnprocessableEntity, "io", "no changes in request")
		return
	}
	classes := req.Classes
	if len(classes) == 0 {
		classes = cryptoapi.TargetClasses
	} else {
		for _, cls := range classes {
			if !cryptoapi.IsTarget(cls) {
				s.writeError(ctx, w, http.StatusUnprocessableEntity, "io", fmt.Sprintf("unknown target class %q", cls))
				return
			}
		}
	}
	if ms := req.TimeoutMs; ms > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	d := core.New(s.opts.Checker)
	resp := AnalyzeResponse{Results: make([]ChangeResult, 0, len(req.Changes)), Degraded: s.deg.degraded()}
	for i, spec := range req.Changes {
		res := ChangeResult{Index: i, UsageChanges: []UsageChange{}}
		// Each change gets its own span so a failed change annotates its
		// slot in the tree, not the whole request; the serial loop makes the
		// creation-order ordinals deterministic.
		cctx, csp := trace.Start(ctx, fmt.Sprintf("change[%d]", i))
		a, err := d.AnalyzeChangeCtx(cctx, mining.CodeChange{
			Old: spec.Old, New: spec.New,
			Meta: change.Meta{Project: spec.Project, Commit: spec.Commit, File: spec.File, Message: spec.Message},
		})
		csp.End()
		if err != nil {
			// Change-level fault containment: this change failed, the rest
			// of the batch still analyzes — unless the whole request's
			// budget is what tripped, which every later change would also
			// hit.
			status, category := mapFailure(err)
			res.Error = &ErrorInfo{Status: status, Category: category, Message: err.Error()}
			resp.Results = append(resp.Results, res)
			s.reg.Counter("serve.analyze.change_failures").Inc()
			if ctx.Err() != nil {
				// The whole request hit its wall: the root span carries the
				// category, so the trace is retained as a failure.
				trace.FromContext(ctx).Annotate(category)
				s.failRemaining(&resp, req.Changes, i+1, status, category)
				break
			}
			continue
		}
		for _, cls := range classes {
			for _, uc := range d.ExtractClass(a, cls) {
				if uc.IsSame() {
					continue
				}
				label := "semantic change"
				switch {
				case uc.IsAddOnly():
					label = "new usage added"
				case uc.IsRemoveOnly():
					label = "usage removed"
				}
				res.UsageChanges = append(res.UsageChanges, UsageChange{Class: cls, Label: label, Text: uc.String()})
			}
		}
		resp.Results = append(resp.Results, res)
	}
	resp.TraceID = trace.FromContext(ctx).TraceID()
	writeJSON(w, http.StatusOK, resp)
}

// failRemaining marks the unanalyzed tail of a batch whose request context
// expired; each carries the same budget/cancel category as the change that
// hit the wall.
func (s *Server) failRemaining(resp *AnalyzeResponse, specs []ChangeSpec, from, status int, category string) {
	for i := from; i < len(specs); i++ {
		resp.Results = append(resp.Results, ChangeResult{
			Index:        i,
			UsageChanges: []UsageChange{},
			Error:        &ErrorInfo{Status: status, Category: category, Message: "request budget exhausted before this change"},
		})
	}
}

// ---------------------------------------------------------------------------
// Health, readiness, metrics
// ---------------------------------------------------------------------------

type healthResponse struct {
	Status   string `json:"status"`
	Degraded bool   `json:"degraded,omitempty"`
	// RulesEpoch advertises the live rule-set generation so an operator
	// can confirm a hot reload landed fleet-wide. Absent without packs.
	RulesEpoch int64 `json:"rules_epoch,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness: the process is up and the handler runs — degraded or
	// draining, a live process must not be restarted by the orchestrator.
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	// Readiness: draining means "stop routing to me"; degraded still
	// serves (that is the point of degrading) but is advertised.
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ready", Degraded: s.deg.degraded(), RulesEpoch: s.RulesEpoch()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		b, err := obs.TakeSnapshot(s.reg, false).Marshal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	case "prom":
		w.Header().Set("Content-Type", obs.PromContentType)
		obs.WriteProm(w, s.reg) //nolint:errcheck — a broken scrape conn is the scraper's problem
	default:
		s.writeError(r.Context(), w, http.StatusNotAcceptable, "request",
			fmt.Sprintf("unknown metrics format %q (want json or prom)", format))
	}
}

// ---------------------------------------------------------------------------
// Trace inspector (/debug/traces, registered only when tracing is on)
// ---------------------------------------------------------------------------

// TraceSummary is one retained trace in the /debug/traces list: the Record
// without its span tree.
type TraceSummary struct {
	TraceID     string `json:"trace_id"`
	Name        string `json:"name"`
	StartUnixUs int64  `json:"start_unix_us"`
	DurUs       int64  `json:"dur_us"`
	Category    string `json:"category,omitempty"`
	Retained    string `json:"retained"`
	Spans       int    `json:"spans"`
}

// TraceList is the /debug/traces response body, newest trace first.
type TraceList struct {
	Count  int            `json:"count"`
	Traces []TraceSummary `json:"traces"`
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	list := TraceList{Traces: []TraceSummary{}}
	for _, rec := range s.traces.List() {
		list.Traces = append(list.Traces, TraceSummary{
			TraceID:     rec.ID,
			Name:        rec.Name,
			StartUnixUs: rec.StartUnixUs,
			DurUs:       rec.DurUs,
			Category:    rec.Category,
			Retained:    rec.Retained,
			Spans:       rec.Spans,
		})
	}
	list.Count = len(list.Traces)
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleTraceDetail(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	rec := s.traces.Get(id)
	if rec == nil {
		s.writeError(r.Context(), w, http.StatusNotFound, "request", fmt.Sprintf("no retained trace %q", id))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, rec)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "trace %s %s %dµs", rec.ID, rec.Name, rec.DurUs)
		if rec.Category != "" {
			fmt.Fprintf(w, " [%s]", rec.Category)
		}
		fmt.Fprintf(w, " retained=%s\n\n%s", rec.Retained, rec.Root.Waterfall())
	default:
		s.writeError(r.Context(), w, http.StatusNotAcceptable, "request",
			fmt.Sprintf("unknown trace format %q (want json or text)", format))
	}
}

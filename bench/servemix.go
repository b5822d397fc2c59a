package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/change"
	"repro/internal/core"
	"repro/internal/cryptoapi"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/summary"
)

// serveCorpus supplies the serve-mix request bodies: enough distinct
// mined file versions (7,322 at seed 1) that no check body repeats unless
// the stream says so.
var serveCorpus = corpusSize{scale: 0.5, projects: 461, extra: 0}

// busyRPS is the open-loop arrival rate of serve-mix, frozen so that later
// commits are measured at the same load. It is half of the highest rate of
// a ×1.25 ladder from 1000 rps at which p99 latency stayed within 25 ms,
// every request completed and the generator's lateness p99 stayed within
// 5 ms (1000 rps; on a 2-CPU machine at the commit that added the
// benchmark, the generator itself ran more than 5 ms late at 1250 rps).
const busyRPS = 500

// The serve-mix request mix, as shares of all requests.
const (
	analyzeShare = 0.05 // /v1/analyze on one mined (old, new) pair
	repeatShare  = 0.15 // /v1/check repeating an earlier body exactly
	whyShare     = 0.10 // share of new /v1/check bodies asking why
)

// request is one request of the stream; key indexes its distinct body.
type request struct {
	key    int
	repeat bool
}

// body is one distinct request body with what checks its response.
type body struct {
	path    string
	payload []byte
	why     bool
	sources map[string]string // check bodies
	change  mining.CodeChange // analyze bodies
}

// stream is the seeded serve-mix traffic: the arrival offsets of the
// open-loop part, and the requests of the open-loop part then the burst.
type stream struct {
	bodies  []body
	reqs    []request
	arrival []time.Duration
}

func buildStream(seed int64, ccs []mining.CodeChange, sz sizes) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var versions []string
	for _, cc := range ccs {
		for _, src := range []string{cc.Old, cc.New} {
			if !seen[src] {
				seen[src] = true
				versions = append(versions, src)
			}
		}
	}
	rng.Shuffle(len(versions), func(i, j int) { versions[i], versions[j] = versions[j], versions[i] })
	pairs := rng.Perm(len(ccs))
	s := &stream{}
	var sent []int // keys of check bodies already in the stream
	n := sz.serveOpen + sz.serveBurst
	for i := 0; i < n; i++ {
		x := rng.Float64()
		switch {
		case x < analyzeShare && len(pairs) > 0:
			cc := ccs[pairs[0]]
			pairs = pairs[1:]
			payload, err := json.Marshal(serve.AnalyzeRequest{Changes: []serve.ChangeSpec{{Old: cc.Old, New: cc.New}}})
			if err != nil {
				return nil, err
			}
			s.bodies = append(s.bodies, body{path: "/v1/analyze", payload: payload, change: mining.CodeChange{Old: cc.Old, New: cc.New}})
			s.reqs = append(s.reqs, request{key: len(s.bodies) - 1})
		case x < analyzeShare+repeatShare && len(sent) > 0:
			s.reqs = append(s.reqs, request{key: sent[rng.Intn(len(sent))], repeat: true})
		default:
			if len(versions) == 0 {
				return nil, fmt.Errorf("corpus has too few distinct file versions for %d requests", n)
			}
			sources := map[string]string{"Main.java": versions[0]}
			versions = versions[1:]
			why := rng.Float64() < whyShare
			payload, err := json.Marshal(serve.CheckRequest{Sources: sources, Why: why})
			if err != nil {
				return nil, err
			}
			s.bodies = append(s.bodies, body{path: "/v1/check", payload: payload, why: why, sources: sources})
			sent = append(sent, len(s.bodies)-1)
			s.reqs = append(s.reqs, request{key: len(s.bodies) - 1})
		}
	}
	// Independent users: exponential gaps at the busy rate.
	at := time.Duration(0)
	for i := 0; i < sz.serveOpen; i++ {
		s.arrival = append(s.arrival, at)
		at += time.Duration(rng.ExpFloat64() / busyRPS * float64(time.Second))
	}
	return s, nil
}

// checkWire renders a check outcome as /v1/check renders it.
func checkWire(out *core.CheckOutcome) serve.CheckResponse {
	resp := serve.CheckResponse{Violations: []serve.Violation{}, Traces: out.Traces}
	for _, v := range out.Violations {
		wv := serve.Violation{Rule: v.Rule.ID, Description: v.Rule.Description, Formula: v.Rule.Formula, Objects: []serve.Object{}}
		for _, o := range v.Objs {
			wv.Objects = append(wv.Objects, serve.Object{Label: o.SiteLabel(), Line: o.Site.Line})
		}
		resp.Violations = append(resp.Violations, wv)
	}
	return resp
}

// analyzeWire renders one change's usage changes as /v1/analyze renders a
// one-change batch.
func analyzeWire(ucs []change.UsageChange) serve.AnalyzeResponse {
	res := serve.ChangeResult{UsageChanges: []serve.UsageChange{}}
	for _, uc := range ucs {
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
		res.UsageChanges = append(res.UsageChanges, serve.UsageChange{Class: uc.Class, Label: label, Text: uc.String()})
	}
	return serve.AnalyzeResponse{Results: []serve.ChangeResult{res}}
}

func wireBytes(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// references computes the expected response of every distinct body of
// keys with the product's checker and miner in process: one worker, no
// artifact store, never the server under test.
func references(s *stream, keys []int) (map[int][]byte, error) {
	ctx := context.Background()
	checker := core.NewChecker(nil, core.Options{Workers: 1})
	d := core.New(core.Options{Workers: 1})
	refs := map[int][]byte{}
	for _, k := range keys {
		b := s.bodies[k]
		var wire any
		if b.path == "/v1/check" {
			out, err := checker.CheckRequest(ctx, b.sources, rules.Context{}, b.why)
			if err != nil {
				return nil, fmt.Errorf("reference check: %w", err)
			}
			wire = checkWire(out)
		} else {
			a, err := d.AnalyzeChangeCtx(ctx, b.change)
			if err != nil {
				return nil, fmt.Errorf("reference analyze: %w", err)
			}
			var ucs []change.UsageChange
			for _, class := range cryptoapi.TargetClasses {
				ucs = append(ucs, d.ExtractClass(a, class)...)
			}
			wire = analyzeWire(ucs)
		}
		out, err := wireBytes(wire)
		if err != nil {
			return nil, err
		}
		refs[k] = out
	}
	return refs, nil
}

// distinctKeys lists the bodies of the stream in first-use order.
func (s *stream) distinctKeys() []int {
	var keys []int
	for _, q := range s.reqs {
		if !q.repeat {
			keys = append(keys, q.key)
		}
	}
	return keys
}

// serveTraced replays the stream's distinct bodies serially through the
// check and analyze paths rebuilt from the layer packages (repeats are
// served from the server's outcome cache and have no layer work).
func serveTraced(l *layers, s *stream) (map[int][]byte, map[string]float64, error) {
	// One summary table for all requests, as serve.New builds it.
	table := summary.NewTable(nil, l.reg)
	counts := map[string]float64{}
	outs := map[int][]byte{}
	for _, k := range s.distinctKeys() {
		b := s.bodies[k]
		var wire any
		if b.path == "/v1/check" {
			out := checkTraced(l, b.sources, b.why, table)
			counts["rules.evaluated"] += float64(len(rules.All()))
			counts["rules.violations"] += float64(len(out.Violations))
			wire = checkWire(out)
		} else {
			a, err := analyzeTraced(l, b.change, analysis.Options{Summaries: table, Metrics: l.reg})
			if err != nil {
				return nil, nil, err
			}
			counts["mining.changes"]++
			var ucs []change.UsageChange
			for _, class := range cryptoapi.TargetClasses {
				cucs, graphs := extractTraced(l, a, class)
				ucs = append(ucs, cucs...)
				counts["usage.graphs"] += float64(graphs)
			}
			counts["change.usage_changes"] += float64(len(ucs))
			wire = analyzeWire(ucs)
		}
		out, err := wireBytes(wire)
		if err != nil {
			return nil, nil, err
		}
		outs[k] = out
	}
	return outs, counts, nil
}

// liveServer is a serve.Server on a loopback port, in process.
type liveServer struct {
	srv  *serve.Server
	url  string
	done chan error
	// reg counts the server's artifact store traffic and, when the server
	// was started instrumented, its serve.* telemetry.
	reg *obs.Registry
}

func startServer(workers int, instrumented bool) (*liveServer, error) {
	reg := obs.NewRegistry()
	opts := serve.Options{
		Checker:   core.Options{Workers: workers},
		Artifacts: artifact.New(artifact.Config{Metrics: reg}),
	}
	if instrumented {
		opts.Checker.Metrics = reg
	}
	ls := &liveServer{srv: serve.New(opts), reg: reg, done: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls.url = "http://" + ln.Addr().String()
	go func() { ls.done <- ls.srv.Serve(ln) }()
	// The probe's connection is closed at once: during a round the client's
	// connections are the only ones.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := probe.Get(ls.url + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop drains the server and waits for Serve to return.
func (ls *liveServer) stop() error {
	rep := ls.srv.Drain()
	err := <-ls.done
	if err == nil && rep.Dropped > 0 {
		err = fmt.Errorf("drain dropped %d requests", rep.Dropped)
	}
	return err
}

// client sends the stream's requests over at most conns connections.
type client struct {
	http  *http.Client
	conns int
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, conns: conns}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// reply is one response as the load generator saw it.
type reply struct {
	status int
	body   []byte
	err    error
}

func (c *client) send(url string, b body) reply {
	resp, err := c.http.Post(url+b.path, "application/json", bytes.NewReader(b.payload))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: out, err: err}
}

// drive sends reqs from conns sender goroutines. With arrival set, request
// i is due at start+arrival[i] (open loop) and its latency counts from that
// due time; otherwise all are due at start (closed loop). It returns each
// request's latency and how late the generator handed it to a sender.
func (c *client) drive(url string, s *stream, reqs []request, arrival []time.Duration) (lat, late []float64, replies []reply) {
	n := len(reqs)
	lat, late, replies = make([]float64, n), make([]float64, n), make([]reply, n)
	due := make([]time.Time, n)
	jobs := make(chan int, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				replies[i] = c.send(url, s.bodies[reqs[i].key])
				lat[i] = time.Since(due[i]).Seconds()
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		due[i] = start
		if arrival != nil {
			due[i] = start.Add(arrival[i])
			time.Sleep(time.Until(due[i]))
		}
		late[i] = time.Since(due[i]).Seconds()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return lat, late, replies
}

// verifyReplies checks each reply against its reference body.
func verifyReplies(r *run, s *stream, reqs []request, replies []reply, refs map[int][]byte) {
	for i, rep := range replies {
		b := s.bodies[reqs[i].key]
		err := rep.err
		switch {
		case err != nil:
		case rep.status != http.StatusOK:
			err = fmt.Errorf("%s: status %d: %s", b.path, rep.status, rep.body)
		case b.why && bytes.Contains(rep.body, []byte(`"degraded":true`)):
			err = fmt.Errorf("%s: degraded reply to a why request", b.path)
		default:
			err = firstDiff(string(refs[reqs[i].key]), string(rep.body))
		}
		r.fail.op(err)
	}
}

// burstChunk is how many closed-loop requests one timed burst sends.
const burstChunk = 500

// roundResult is what one serve-mix round measured.
type roundResult struct {
	lat, late []float64
	// bursts holds the wall time of each closed-loop chunk.
	bursts []float64
}

// round serves the stream once against ls: the open-loop part at the busy
// rate, then the burst closed-loop in chunks of burstChunk requests; ls is
// stopped afterwards.
func round(r *run, ls *liveServer, s *stream, refs map[int][]byte) roundResult {
	c := newClient(r.workers)
	defer c.close()
	open := s.reqs[:len(s.arrival)]
	var res roundResult
	var replies []reply
	res.lat, res.late, replies = c.drive(ls.url, s, open, s.arrival)
	verifyReplies(r, s, open, replies, refs)
	for lo := len(open); lo < len(s.reqs); lo += burstChunk {
		chunk := s.reqs[lo:min(lo+burstChunk, len(s.reqs))]
		t0 := time.Now()
		_, _, replies = c.drive(ls.url, s, chunk, nil)
		res.bursts = append(res.bursts, time.Since(t0).Seconds())
		verifyReplies(r, s, chunk, replies, refs)
	}
	if err := ls.stop(); err != nil {
		r.fail.note(err)
	}
	return res
}

// serveState is what serve-mix set-up builds: the stream and a running
// server for the first round.
type serveState struct {
	s  *stream
	ls *liveServer
}

func runServeMix(r *run) error {
	st, setup, err := timeSetup(func() (serveState, error) {
		ccs := mining.Collect(r.sizes.serve.generate(r.seed), mining.Options{})
		s, err := buildStream(r.seed, ccs, r.sizes)
		if err != nil {
			return serveState{}, err
		}
		ls, err := startServer(r.workers, r.trace)
		return serveState{s, ls}, err
	}, func(st serveState) { st.ls.stop() })
	if err != nil {
		return err
	}
	r.setup = setup
	s := st.s
	var checks, repeats, whys, bytes float64
	for _, q := range s.reqs {
		if b := s.bodies[q.key]; b.path == "/v1/check" {
			checks++
			if q.repeat {
				repeats++
			}
			if b.why {
				whys++
			}
			bytes += float64(len(b.sources["Main.java"]))
		}
	}
	r.props["requests"] = float64(len(s.reqs))
	r.props["repeat_share"] = repeats / float64(len(s.reqs))
	r.props["why_share"] = whys / checks
	r.props["mean_source_bytes"] = bytes / checks
	refs, err := references(s, s.distinctKeys())
	if err != nil {
		st.ls.stop()
		return err
	}
	ls := st.ls
	next := func() *liveServer {
		if ls == nil {
			if ls, err = startServer(r.workers, r.trace); err != nil {
				r.fail.note(err)
				return nil
			}
		}
		out := ls
		ls = nil
		return out
	}

	if !r.trace {
		var lat, late, bursts []float64
		var hits, lookups int64
		_, peak, alloc := measure(r.budget, func() {
			srv := next()
			if srv == nil {
				return
			}
			res := round(r, srv, s, refs)
			lat, late = append(lat, res.lat...), append(late, res.late...)
			bursts = append(bursts, res.bursts...)
			snap := obs.TakeSnapshot(srv.reg, false).Counters
			hits += snap["artifact.check.hits"]
			lookups += snap["artifact.check.hits"] + snap["artifact.check.misses"]
		})
		r.e2e(bursts, lat, peak, alloc)
		if lookups > 0 {
			r.props["check_artifact_hit_ratio"] = float64(hits) / float64(lookups)
		}
		r.note("open loop at %d rps: latency p99 %.2f ms, generator late p99 %.2f ms over %d requests",
			busyRPS, 1000*quantile(lat, 0.99), 1000*quantile(late, 0.99), len(lat))
		if len(bursts) > 0 {
			r.note("closed-loop bursts: %.0f requests/s", burstChunk/median(bursts))
		}
		return nil
	}

	// Outputs as one text, in first-use order, for comparison.
	keys := s.distinctKeys()
	joined := func(outs map[int][]byte) string {
		var sb strings.Builder
		for _, k := range keys {
			sb.Write(outs[k])
		}
		return sb.String()
	}
	want := joined(refs)
	r.traced(func() tracedPass {
		// One round against an instrumented server (untimed) counts the
		// artifact traffic and scrapes the server's own telemetry.
		srv := next()
		if srv != nil {
			round(r, srv, s, refs)
			snap := obs.TakeSnapshot(srv.reg, false)
			q := snap.Histograms["serve.queue.wait_us"]
			lt := snap.Histograms["serve.check.latency_us"]
			r.note("instrumented round: server check p99 %.2f ms, queue wait p99 %.2f ms, shed %d, degraded %d",
				float64(lt.P99)/1000, float64(q.P99)/1000, snap.Counters["serve.shed"], snap.Counters["serve.degraded.requests"])
		}
		p := r.tracedIteration(func() error {
			got, err := references(s, keys)
			if err != nil {
				return err
			}
			return firstDiff(want, joined(got))
		}, func(l *layers) (map[string]float64, error) {
			got, counts, err := serveTraced(l, s)
			if err != nil {
				return nil, err
			}
			return counts, firstDiff(want, joined(got))
		})
		if srv != nil {
			addArtifactCounts(&p, srv.reg)
		}
		return p
	})
	return nil
}

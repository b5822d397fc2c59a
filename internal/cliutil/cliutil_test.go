package cliutil

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/trace"
)

func TestValidateWorkers(t *testing.T) {
	for _, n := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
		if err := ValidateWorkers(n); err != nil {
			t.Errorf("ValidateWorkers(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{0, -1, -8} {
		if err := ValidateWorkers(n); err == nil {
			t.Errorf("ValidateWorkers(%d) = nil, want error", n)
		}
	}
}

// captureUsageError runs fn with the exit hook intercepted and stderr
// captured, returning the exit status (-1 if never called) and the message.
func captureUsageError(t *testing.T, fn func()) (code int, msg string) {
	t.Helper()
	code = -1
	osExit = func(c int) { code = c; panic("exit") }
	defer func() { osExit = os.Exit }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldErr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = oldErr }()
	func() {
		defer func() { recover() }() // the exit hook panics to stop fn
		fn()
	}()
	w.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return code, sb.String()
}

func TestUsageErrorSingleLineExit2(t *testing.T) {
	code, msg := captureUsageError(t, func() {
		UsageError("sometool", "unknown rule %q", "R99")
	})
	if code != 2 {
		t.Errorf("exit status = %d, want 2", code)
	}
	want := "sometool: unknown rule \"R99\"\n"
	if msg != want {
		t.Errorf("stderr = %q, want %q (single line, no flag dump)", msg, want)
	}
}

func TestStandardFlagsParseAndValidate(t *testing.T) {
	oldCmd := flag.CommandLine
	oldArgs := os.Args
	defer func() { flag.CommandLine = oldCmd; os.Args = oldArgs }()

	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	std := StandardFlags("test")
	os.Args = []string{"test", "-workers", "3", "-why=json"}
	std.Parse()
	if std.Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", std.Workers())
	}
	if std.Why() != WhyJSON {
		t.Errorf("Why() = %q, want %q", std.Why(), WhyJSON)
	}
	if std.Tool() != "test" {
		t.Errorf("Tool() = %q, want %q", std.Tool(), "test")
	}
}

func TestTraceFlagModes(t *testing.T) {
	cases := []struct {
		args []string
		want TraceMode
	}{
		{[]string{"test"}, TraceOff},
		{[]string{"test", "-trace"}, TraceText},
		{[]string{"test", "-trace=text"}, TraceText},
		{[]string{"test", "-trace=json"}, TraceJSON},
		{[]string{"test", "-trace=false"}, TraceOff},
	}
	oldCmd := flag.CommandLine
	oldArgs := os.Args
	defer func() { flag.CommandLine = oldCmd; os.Args = oldArgs }()
	for _, c := range cases {
		flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
		std := StandardFlags("test")
		os.Args = c.args
		std.Parse()
		if std.Trace() != c.want {
			t.Errorf("args %v: Trace() = %q, want %q", c.args[1:], std.Trace(), c.want)
		}
		if std.Trace().On() != (c.want != TraceOff) {
			t.Errorf("args %v: On() = %t", c.args[1:], std.Trace().On())
		}
	}
}

func TestTraceFlagRejectsUnknownMode(t *testing.T) {
	var m TraceMode
	if err := (modeValue[TraceMode]{&m}).Set("waterfall"); err == nil {
		t.Error("Set(\"waterfall\") = nil, want error")
	}
}

// startRun parses args with a fresh standard flag set and opens the run.
func startRun(t *testing.T, args ...string) *Run {
	t.Helper()
	oldCmd, oldArgs := flag.CommandLine, os.Args
	t.Cleanup(func() { flag.CommandLine, os.Args = oldCmd, oldArgs })
	flag.CommandLine = flag.NewFlagSet("tool", flag.ContinueOnError)
	std := StandardFlags("tool")
	os.Args = append([]string{"tool"}, args...)
	std.Parse()
	return std.Start()
}

// TestTraceBeginAndDump: the run's root span is traced only under -trace,
// and flushing the run dumps the tree (text or JSON) exactly once.
func TestTraceBeginAndDump(t *testing.T) {
	// Off: no span, no registry, and the flush writes nothing.
	run := startRun(t)
	if trace.FromContext(run.Ctx) != nil || run.Reg != nil {
		t.Fatal("an unflagged run carries a span or a registry")
	}
	if _, msg := captureUsageError(t, func() { run.Flush(nil, false) }); msg != "" {
		t.Errorf("unflagged flush wrote %q, want nothing", msg)
	}

	// Text: the dump is the indented trace tree, written once.
	run = startRun(t, "-trace")
	_, sp := trace.Start(run.Ctx, "stage")
	sp.End()
	_, out := captureUsageError(t, func() {
		run.Flush(nil, false)
		run.Flush(nil, false)
	})
	if !strings.HasPrefix(out, "tool ") || strings.Count(out, "\n  stage ") != 1 {
		t.Errorf("text dump is not one tree:\n%s", out)
	}

	// JSON: the dump parses and round-trips the span names.
	run = startRun(t, "-trace=json")
	_, sp = trace.Start(run.Ctx, "stage")
	sp.End()
	_, out = captureUsageError(t, func() { run.Flush(nil, false) })
	var d trace.SpanData
	if err := json.Unmarshal([]byte(out), &d); err != nil {
		t.Fatalf("JSON dump does not parse: %v\n%s", err, out)
	}
	if d.Name != "tool" || len(d.Children) != 1 || d.Children[0].Name != "stage" {
		t.Errorf("JSON dump tree = %+v", d)
	}
}

// TestRunAbortWritesTraceAndPartialSnapshot: a run that aborts through the
// exit path still dumps its trace tree, prints the -v table, and writes a
// snapshot flagged partial carrying the stage spans and ledger failures.
func TestRunAbortWritesTraceAndPartialSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	run := startRun(t, "-trace", "-v", "-metrics", path)
	_, sp := trace.Start(run.Ctx, "mine")
	sp.End()
	l := resilience.NewLedger()
	l.Record(resilience.NewEntry("change p@c1:A.java", resilience.PhaseAnalyze, resilience.ErrBudgetExhausted))
	code, out := captureUsageError(t, func() { run.Exit(1, l, true) })
	if code != 1 {
		t.Errorf("exit status = %d, want 1", code)
	}
	if !strings.HasPrefix(out, "tool ") || !strings.Contains(out, "\n  mine ") {
		t.Errorf("aborted run lost its trace tree:\n%s", out)
	}
	if strings.Count(out, "stage ") != 1 || !strings.Contains(out, "\nmine ") {
		t.Errorf("aborted run lost its -v table:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if !s.Partial || s.Counters["span.mine.count"] != 1 || s.Counters["span.tool.count"] != 1 ||
		s.Counters["failures.total"] != 1 {
		t.Errorf("snapshot = partial %t, counters %v", s.Partial, s.Counters)
	}
}

func TestStandardFlagsRejectBadWorkers(t *testing.T) {
	oldCmd := flag.CommandLine
	oldArgs := os.Args
	defer func() { flag.CommandLine = oldCmd; os.Args = oldArgs }()

	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	std := StandardFlags("badtool")
	os.Args = []string{"badtool", "-workers", "0"}
	code, msg := captureUsageError(t, std.Parse)
	if code != 2 {
		t.Errorf("exit status = %d, want 2", code)
	}
	if !strings.HasPrefix(msg, "badtool: -workers must be at least 1") {
		t.Errorf("stderr = %q, want the uniform single-line -workers message", msg)
	}
	if strings.Count(strings.TrimRight(msg, "\n"), "\n") != 0 {
		t.Errorf("usage error spans multiple lines:\n%s", msg)
	}
}

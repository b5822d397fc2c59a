package cliutil

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"

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
	if err := (traceValue{&m}).Set("waterfall"); err == nil {
		t.Error("Set(\"waterfall\") = nil, want error")
	}
}

func TestTraceBeginAndDump(t *testing.T) {
	// Off: an inert span and a clean context, and Dump writes nothing.
	ctx, root := TraceOff.Begin("tool")
	if root != nil {
		t.Fatalf("TraceOff.Begin root = %v, want nil", root)
	}
	if trace.FromContext(ctx) != nil {
		t.Error("TraceOff.Begin context carries a span")
	}
	var sb strings.Builder
	TraceOff.Dump(&sb, root)
	if sb.Len() != 0 {
		t.Errorf("TraceOff.Dump wrote %q, want nothing", sb.String())
	}

	// Text: the dump is the indented trace tree.
	ctx, root = TraceText.Begin("tool")
	if trace.FromContext(ctx) != root || root == nil {
		t.Fatal("TraceText.Begin context does not carry the root span")
	}
	root.Child("stage").End()
	TraceText.Dump(&sb, root)
	out := sb.String()
	if !strings.Contains(out, "tool ") || !strings.Contains(out, "\n  stage ") {
		t.Errorf("text dump missing tree:\n%s", out)
	}

	// JSON: the dump parses and round-trips the span names.
	_, root = TraceJSON.Begin("tool")
	root.Child("stage").End()
	sb.Reset()
	TraceJSON.Dump(&sb, root)
	var d trace.SpanData
	if err := json.Unmarshal([]byte(sb.String()), &d); err != nil {
		t.Fatalf("JSON dump does not parse: %v\n%s", err, sb.String())
	}
	if d.Name != "tool" || len(d.Children) != 1 || d.Children[0].Name != "stage" {
		t.Errorf("JSON dump tree = %+v", d)
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

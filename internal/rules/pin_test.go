package rules

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/cryptoapi"
)

var (
	updatePin = flag.Bool("update-pin", false, "rewrite testdata/builtin_pin.golden from the current rules")
	dumpPin   = flag.String("pin-dump", "", "write every pinned decision, one per line, to this file")
)

// The pin generator: for each built-in rule, objects of its clause classes
// whose events cover every modeled method and arity, with argument values
// that probe how the rules normalise algorithm names (case, surrounding
// space, dashes), integer thresholds, ⊤ values and constant data.

var pinStrBases = []string{
	"SHA-1", "SHA1", "SHA", "MD5", "MD2", "MD4", "SHA-256", "SHA1PRNG",
	"NativePRNG", "BC", "SunJCE", "AES", "AES/ECB/PKCS5Padding",
	"AES/CBC/PKCS5Padding", "AES/GCM/NoPadding", "DES", "DES/CBC/PKCS5Padding",
	"DESede", "Blowfish", "RC2", "RSA", "RSA/ECB/OAEPPadding", "HmacSHA256",
	"Hmac", "PBKDF2WithHmacSHA1", "",
}

// pinVariants returns the spellings of one algorithm string the generator
// tries: as written, lower and upper case, with surrounding space, without
// dashes, with a dash inserted, and with its slashes turned into dashes.
func pinVariants(s string) []string {
	out := []string{s, strings.ToLower(s), strings.ToUpper(s), " " + s, s + " ",
		"\t" + strings.ToLower(s) + " ", strings.ReplaceAll(s, "-", ""),
		strings.ReplaceAll(s, "/", "-")}
	for _, at := range []int{1, 3} {
		if at < len(s) {
			out = append(out, s[:at]+"-"+s[at:])
		}
	}
	seen := map[string]bool{}
	uniq := out[:0]
	for _, v := range out {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// pinValues is every argument value the generator places at a position.
func pinValues() []absdom.Value {
	var vs []absdom.Value
	for _, b := range pinStrBases {
		for _, v := range pinVariants(b) {
			vs = append(vs, absdom.StrConst(v))
		}
	}
	for _, n := range []string{"0", "-1", "100", "999", "1000", "1001", "4096", "ENCRYPT_MODE"} {
		vs = append(vs, absdom.IntConst(n))
	}
	return append(vs,
		absdom.TopStr(), absdom.TopInt(), absdom.TopByteArr(), absdom.TopIntArr(),
		absdom.TopStrArr(), absdom.TopByte(), absdom.TopObj("Key"),
		absdom.ConstByteArr(), absdom.IntArrConst("1, 2"), absdom.StrArrConst(`"a"`),
		absdom.ConstByte(), absdom.BoolConst(true), absdom.Null())
}

// pinEvents generates the events of one class: per modeled method and
// arity, one event with every argument ⊤, and one per (position, value)
// with the other positions ⊤.
func pinEvents(class string) []analysis.Event {
	vals := pinValues()
	var out []analysis.Event
	for _, m := range cryptoapi.MethodsOf(class) {
		base := make([]absdom.Value, len(m.Params))
		for i := range base {
			base[i] = absdom.TopObj(m.Params[i])
		}
		out = append(out, analysis.Event{Sig: m, Args: base})
		for i := range m.Params {
			for _, v := range vals {
				args := append([]absdom.Value(nil), base...)
				args[i] = v
				out = append(out, analysis.Event{Sig: m, Args: args})
			}
		}
	}
	return out
}

// pinContexts are the project contexts every decision is pinned under.
func pinContexts() []Context {
	var out []Context
	for _, android := range []bool{false, true} {
		for _, sdk := range []int{15, 16, 18} {
			for _, lprng := range []bool{false, true} {
				out = append(out, Context{Android: android, MinSDKVersion: sdk, HasLPRNG: lprng})
			}
		}
	}
	return out
}

func pinEventString(ev analysis.Event) string {
	parts := make([]string, len(ev.Args))
	for i, a := range ev.Args {
		parts[i] = fmt.Sprintf("%d:%q", a.Kind, a.Label())
	}
	return ev.Sig.Class + "." + ev.Sig.Name + "(" + strings.Join(parts, ",") + ")"
}

// pinObjects builds the single-object programs of a rule: one object per
// generated event of each clause class, alone and after a first event of
// another method of the class (so evidence indexes past 0).
func pinObjects(r *Rule) [][]analysis.Event {
	var out [][]analysis.Event
	seen := map[string]bool{}
	for _, c := range r.Clauses {
		if seen[c.Class] {
			continue
		}
		seen[c.Class] = true
		evs := pinEvents(c.Class)
		lead := evs[len(evs)-1]
		for _, ev := range evs {
			out = append(out, []analysis.Event{ev})
			if ev.Sig.Name != lead.Sig.Name {
				out = append(out, []analysis.Event{lead, ev})
			}
		}
	}
	return out
}

func pinResult(objs ...[]analysis.Event) *analysis.Result {
	res := &analysis.Result{Uses: map[*absdom.AObj][]analysis.Event{}}
	for i, evs := range objs {
		o := &absdom.AObj{ID: i, Type: evs[0].Sig.Class}
		res.Objs = append(res.Objs, o)
		res.Uses[o] = evs
	}
	return res
}

func bstr(b bool) string {
	if b {
		return "T"
	}
	return "F"
}

// pinDecide writes everything the rule decides on one program: per object,
// each clause predicate and, where a positive clause of its class accepts
// it, the evidence; then Applicable and Matches with the matched objects.
func pinDecide(w *pinSink, r *Rule, res *analysis.Result, ctx Context) {
	ctxs := fmt.Sprintf("a%s/%d/l%s", bstr(ctx.Android), ctx.MinSDKVersion, bstr(ctx.HasLPRNG))
	for _, o := range res.Objs {
		var preds []string
		accepted := false
		for _, c := range r.Clauses {
			if c.Class != o.Type {
				preds = append(preds, "-")
				continue
			}
			ok := c.Pred(res, o, ctx)
			preds = append(preds, bstr(ok))
			accepted = accepted || (ok && !c.Negated)
		}
		evs := make([]string, len(res.Uses[o]))
		for i, ev := range res.Uses[o] {
			evs[i] = pinEventString(ev)
		}
		line := fmt.Sprintf("%s %s obj%d %s pred=%s", r.ID, ctxs, o.ID, strings.Join(evs, " "), strings.Join(preds, ""))
		if accepted {
			ev := Violation{Rule: r, Objs: []*absdom.AObj{o}}.Evidence(res, ctx)[o]
			var ms []string
			for _, m := range ev {
				ms = append(ms, fmt.Sprintf("%d%v", m.EventIndex, m.Args))
			}
			line += " ev=" + strings.Join(ms, ";")
			w.evidence++
		}
		w.line(line)
	}
	app := r.Applicable(res, ctx)
	ok, objs := r.Matches(res, ctx)
	ids := make([]int, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	if app {
		w.applicable++
	}
	if ok {
		w.matches++
	}
	w.line(fmt.Sprintf("%s %s app=%s match=%s %v", r.ID, ctxs, bstr(app), bstr(ok), ids))
}

// pinSink hashes the decision lines of one rule and counts its outcomes.
type pinSink struct {
	h                                    hash.Hash
	dump                                 *strings.Builder
	lines, applicable, matches, evidence int
}

func (w *pinSink) line(s string) {
	w.lines++
	w.h.Write([]byte(s))
	w.h.Write([]byte{'\n'})
	if w.dump != nil {
		w.dump.WriteString(s)
		w.dump.WriteByte('\n')
	}
}

// TestBuiltinDecisionsPinned pins what every built-in rule decides on
// generated events: clause predicates, evidence (event index and decisive
// argument positions), applicability and matches, under twelve project
// contexts. The golden holds one digest per rule with its counts; run with
// -pin-dump to see every decision when a digest moves.
func TestBuiltinDecisionsPinned(t *testing.T) {
	var dump *strings.Builder
	if *dumpPin != "" {
		dump = &strings.Builder{}
	}
	var got strings.Builder
	for _, r := range append(All(), CryptoLint()...) {
		w := &pinSink{h: sha256.New(), dump: dump}
		for _, evs := range pinObjects(r) {
			res := pinResult(evs)
			for _, ctx := range pinContexts() {
				pinDecide(w, r, res, ctx)
			}
		}
		// Multi-object programs for rules that conjoin clauses over
		// distinct objects: each object of the first clause's class with
		// each object of every other clause's class that differs in its
		// first argument only.
		if len(r.Clauses) > 1 {
			for _, combo := range pinCombos(r) {
				res := pinResult(combo...)
				for _, ctx := range pinContexts()[:2] {
					pinDecide(w, r, res, ctx)
				}
			}
		}
		fmt.Fprintf(&got, "%s lines=%d applicable=%d matches=%d evidence=%d sha256=%x\n",
			r.ID, w.lines, w.applicable, w.matches, w.evidence, w.h.Sum(nil))
	}
	if dump != nil {
		if err := os.WriteFile(*dumpPin, []byte(dump.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "builtin_pin.golden")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("built-in decisions moved (rerun with -pin-dump on both sides to diff):\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// pinCombos builds the multi-object programs of a composite rule: every
// single-argument getInstance object of the first clause's class with a
// fixed partner per other positive clause and each getInstance variant of
// every negated clause's class (or none).
func pinCombos(r *Rule) [][][]analysis.Event {
	byClass := map[string][]analysis.Event{}
	for _, c := range r.Clauses {
		if _, ok := byClass[c.Class]; ok {
			continue
		}
		for _, ev := range pinEvents(c.Class) {
			if ev.Sig.Name == "getInstance" && len(ev.Args) == 1 {
				byClass[c.Class] = append(byClass[c.Class], ev)
			}
		}
	}
	str := func(class, s string) []analysis.Event {
		sig, _ := cryptoapi.LookupMethod(class, "getInstance", 1)
		return []analysis.Event{{Sig: sig, Args: []absdom.Value{absdom.StrConst(s)}}}
	}
	var partners [][]analysis.Event
	var negs [][][]analysis.Event
	for i, c := range r.Clauses {
		switch {
		case i == 0:
		case c.Negated:
			opts := [][]analysis.Event{nil}
			for _, ev := range byClass[c.Class] {
				a := ev.Args[0]
				if a.Kind != absdom.KStrConst || strings.Contains(strings.ToLower(a.Payload), "mac") {
					opts = append(opts, []analysis.Event{ev})
				}
			}
			negs = append(negs, opts)
		default:
			for _, s := range []string{"RSA", "AES/CBC/PKCS5Padding", "AES/GCM/NoPadding"} {
				partners = append(partners, str(c.Class, s))
			}
		}
	}
	var out [][][]analysis.Event
	for _, a := range byClass[r.Clauses[0].Class] {
		for _, p := range partners {
			base := [][]analysis.Event{{a}, p}
			out = append(out, base)
			for _, opts := range negs {
				for _, n := range opts {
					if n != nil {
						out = append(out, append(append([][]analysis.Event(nil), base...), n))
					}
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/witness"
)

// misuse is one row of the planted-misuse table: a sink applying a crypto
// API to a value v threaded down a helper chain, and the constants a call
// site may pass as v. Constants before nBad violate exactly the row's rule;
// the rest violate nothing. Cipher sinks name the BouncyCastle provider so
// that R5 stays quiet.
type misuse struct {
	rule   string
	typ    string
	consts []string
	nBad   int
	sink   string
}

var misuses = []misuse{
	{"R1", "String", []string{`"SHA-1"`, `"MD5"`, `"SHA-256"`, `"SHA-512"`}, 2,
		"MessageDigest md = MessageDigest.getInstance(v);\n        md.update(data);"},
	{"R2", "int", []string{"500", "999", "10000", "65536"}, 2,
		"PBEKeySpec spec = new PBEKeySpec(pw, data, v, 256);"},
	{"R3", "String", []string{`"NativePRNG"`, `"Windows-PRNG"`, `"SHA1PRNG"`, `"sha1prng"`}, 2,
		"SecureRandom sr = SecureRandom.getInstance(v);\n        sr.nextBytes(data);"},
	{"R7", "String", []string{`"AES/ECB/PKCS5Padding"`, `"AES"`, `"AES/GCM/NoPadding"`, `"AES/CTR/NoPadding"`}, 2,
		"Cipher c = Cipher.getInstance(v, \"BC\");\n        c.update(data);"},
	{"R8", "String", []string{`"DES/CBC/PKCS5Padding"`, `"DES/CTR/NoPadding"`, `"AES/GCM/NoPadding"`, `"AES/CTR/NoPadding"`}, 2,
		"Cipher c = Cipher.getInstance(v, \"BC\");\n        c.update(data);"},
	{"R9", "byte[]", []string{`"0123456789abcdef".getBytes()`, `"fedcba9876543210".getBytes()`, `"iv-iv-iv-iv-iv-1".getBytes()`, `"iv-iv-iv-iv-iv-2".getBytes()`}, 4,
		"IvParameterSpec iv = new IvParameterSpec(v);"},
	{"R10", "String", []string{`"0123456789abcdef"`, `"secret-key-00001"`, `"secret-key-00002"`, `"hunter2hunter2!!"`}, 4,
		"SecretKeySpec key = new SecretKeySpec(v.getBytes(), \"AES\");"},
	{"R11", "byte[]", []string{`"saltsalt".getBytes()`, `"pepper!!".getBytes()`, `"salt-001".getBytes()`, `"salt-002".getBytes()`}, 4,
		"PBEKeySpec spec = new PBEKeySpec(pw, v, 65536, 256);"},
	{"R12", "byte[]", []string{`"seed".getBytes()`, `"seed-0001".getBytes()`, `"fixed-seed".getBytes()`, `"0000".getBytes()`}, 4,
		"SecureRandom sr = SecureRandom.getInstance(\"SHA1PRNG\");\n        sr.setSeed(v);"},
}

// program is one generated check-why input with its planted rule.
type program struct {
	sources map[string]string
	rule    string
}

// genPrograms generates n helper-heavy programs. Each plants one misuse at
// the end of a helper chain 1–8 calls deep, reached from 4–48 call sites
// passing 1–4 distinct constants (at least one violating), with 10–60
// statements of local work in every helper body.
func genPrograms(seed int64, n int) []program {
	rng := rand.New(rand.NewSource(seed))
	out := make([]program, n)
	for i := range out {
		m := misuses[rng.Intn(len(misuses))]
		depth := 1 + rng.Intn(8)
		sites := 4 + rng.Intn(45)
		// A random non-empty subset of the constants that includes a
		// violating one.
		perm := rng.Perm(len(m.consts))
		var consts []string
		for _, j := range perm[:1+rng.Intn(len(perm))] {
			consts = append(consts, m.consts[j])
		}
		bad := m.consts[rng.Intn(m.nBad)]
		if !slices.Contains(consts, bad) {
			consts[0] = bad
		}

		var sb strings.Builder
		sb.WriteString("import java.security.MessageDigest;\nimport java.security.SecureRandom;\n" +
			"import javax.crypto.Cipher;\nimport javax.crypto.spec.IvParameterSpec;\n" +
			"import javax.crypto.spec.PBEKeySpec;\nimport javax.crypto.spec.SecretKeySpec;\n\n")
		fmt.Fprintf(&sb, "public class Gen%d {\n    private char[] pw;\n\n", i)
		entries := 1 + sites/8
		for e := 0; e < entries; e++ {
			fmt.Fprintf(&sb, "    public void entry%d(byte[] data) throws Exception {\n", e)
			for s := e; s < sites; s += entries {
				fmt.Fprintf(&sb, "        h0(%s, data);\n", consts[s%len(consts)])
			}
			sb.WriteString("    }\n\n")
		}
		for h := 0; h < depth; h++ {
			fmt.Fprintf(&sb, "    private void h%d(%s v, byte[] data) throws Exception {\n", h, m.typ)
			stmts := 10 + rng.Intn(51)
			fmt.Fprintf(&sb, "        String s0 = \"h%d\";\n", h)
			for s := 1; s < stmts; s++ {
				fmt.Fprintf(&sb, "        String s%d = s%d + \"%d\";\n", s, s-1, s)
			}
			if h+1 < depth {
				fmt.Fprintf(&sb, "        h%d(v, data);\n", h+1)
			} else {
				fmt.Fprintf(&sb, "        %s\n", m.sink)
			}
			sb.WriteString("    }\n\n")
		}
		sb.WriteString("}\n")
		out[i] = program{sources: map[string]string{fmt.Sprintf("Gen%d.java", i): sb.String()}, rule: m.rule}
	}
	return out
}

// checkText renders a check's violations and witness traces, the output
// the traced pass must reproduce.
func checkText(vs []rules.Violation, traces []witness.Trace) string {
	ids := make([]string, len(vs))
	for i, v := range vs {
		ids[i] = v.Rule.ID
	}
	return strings.Join(ids, ",") + " " + witness.JSON(traces)
}

// verify checks one program's violations against its planted rule.
func (p program) verify(vs []rules.Violation, why bool, traces []witness.Trace) error {
	if len(vs) != 1 || vs[0].Rule.ID != p.rule {
		ids := make([]string, len(vs))
		for i, v := range vs {
			ids[i] = v.Rule.ID
		}
		return fmt.Errorf("planted %s, checker reported %v (why=%t)", p.rule, ids, why)
	}
	if why && len(traces) == 0 {
		return fmt.Errorf("planted %s: no witness trace with why=true", p.rule)
	}
	return nil
}

// checkBatch is the number of programs one check-why iteration checks.
const checkBatch = 100

// whyAt is the why setting of program i on pass k: half of every pass, and
// each program both ways on consecutive passes.
func whyAt(i, k int) bool { return (i+k)%2 == 0 }

// checkAllTraced rebuilds the first pass of check-why (one checker, one
// worker, no store) from the layer packages.
func checkAllTraced(l *layers, progs []program) ([]string, map[string]float64) {
	table := summary.NewTable(nil, l.reg)
	outs := make([]string, len(progs))
	counts := map[string]float64{"rules.evaluated": float64(len(rules.All()) * len(progs))}
	for i, p := range progs {
		out := checkTraced(l, p.sources, whyAt(i, 0), table)
		counts["rules.violations"] += float64(len(out.Violations))
		outs[i] = checkText(out.Violations, out.Traces)
	}
	return outs, counts
}

func runCheckWhy(r *run) error {
	progs, setup, err := timeSetup(func() ([]program, error) { return genPrograms(r.seed, r.sizes.programs), nil }, nil)
	if err != nil {
		return err
	}
	r.setup = setup
	var bytes float64
	for _, p := range progs {
		for _, src := range p.sources {
			bytes += float64(len(src))
		}
	}
	r.props["programs"] = float64(len(progs))
	r.props["mean_source_bytes"] = bytes / float64(len(progs))
	ctx := context.Background()

	if !r.trace {
		// An iteration checks the next checkBatch programs with a fresh
		// checker, cycling through the set; many short iterations keep the
		// median steady when the machine slows down for a few seconds.
		batch := min(checkBatch, len(progs))
		var lat []float64
		next, whys := 0, 0
		walls, peak, alloc := measure(r.budget, func() {
			checker := core.NewChecker(nil, core.Options{Workers: r.workers})
			for j := 0; j < batch; j++ {
				i, pass := next%len(progs), next/len(progs)
				next++
				why := whyAt(i, pass)
				if why {
					whys++
				}
				t0 := time.Now()
				out, err := checker.CheckRequest(ctx, progs[i].sources, rules.Context{}, why)
				lat = append(lat, time.Since(t0).Seconds())
				if err == nil {
					err = progs[i].verify(out.Violations, why, out.Traces)
				}
				r.fail.op(err)
			}
		})
		r.e2e(walls, lat, peak, alloc)
		r.props["why_share"] = float64(whys) / float64(len(lat))
		r.note("check latency p99 %.3f ms over %d checks", 1000*quantile(lat, 0.99), len(lat))
		return nil
	}

	whys := 0
	for i := range progs {
		if whyAt(i, 0) {
			whys++
		}
	}
	r.props["why_share"] = float64(whys) / float64(len(progs))
	r.traced(func() tracedPass {
		want := make([]string, len(progs))
		return r.tracedIteration(func() error {
			checker := core.NewChecker(nil, core.Options{Workers: 1})
			for i, prog := range progs {
				why := whyAt(i, 0)
				out, err := checker.CheckRequest(ctx, prog.sources, rules.Context{}, why)
				if err == nil {
					err = prog.verify(out.Violations, why, out.Traces)
				}
				if err != nil {
					return err
				}
				want[i] = checkText(out.Violations, out.Traces)
			}
			return nil
		}, func(l *layers) (map[string]float64, error) {
			got, counts := checkAllTraced(l, progs)
			return counts, firstDiff(strings.Join(want, "\n"), strings.Join(got, "\n"))
		})
	})
	return nil
}

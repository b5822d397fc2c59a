package javaparser

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/javaast"
)

var updateParse = flag.Bool("update-parse", false, "rewrite testdata/parse.golden from the current parser")

// genHelperChain generates program id in the shape of the checker
// benchmark's helper-heavy programs: entry methods pass constants to the
// head of a chain of 1–8 helpers, each doing 10–60 statements of string
// work before calling the next, and the last helper applies a crypto API.
func genHelperChain(r *rand.Rand, id int) string {
	consts := []string{`"AES/ECB/PKCS5Padding"`, `"AES"`, `"AES/GCM/NoPadding"`, `"DES/CBC/PKCS5Padding"`}
	depth := 1 + r.Intn(8)
	sites := 4 + r.Intn(45)
	var sb strings.Builder
	sb.WriteString("import javax.crypto.Cipher;\nimport javax.crypto.spec.SecretKeySpec;\n\n")
	fmt.Fprintf(&sb, "public class Gen%d {\n    private char[] pw;\n\n", id)
	entries := 1 + sites/8
	for e := 0; e < entries; e++ {
		fmt.Fprintf(&sb, "    public void entry%d(byte[] data) throws Exception {\n", e)
		for s := e; s < sites; s += entries {
			fmt.Fprintf(&sb, "        h0(%s, data);\n", consts[(s+id)%len(consts)])
		}
		sb.WriteString("    }\n\n")
	}
	for h := 0; h < depth; h++ {
		fmt.Fprintf(&sb, "    private void h%d(String v, byte[] data) throws Exception {\n", h)
		stmts := 10 + r.Intn(51)
		fmt.Fprintf(&sb, "        String s0 = \"h%d\";\n", h)
		for s := 1; s < stmts; s++ {
			fmt.Fprintf(&sb, "        String s%d = s%d + \"%d\";\n", s, s-1, s)
		}
		if h+1 < depth {
			fmt.Fprintf(&sb, "        h%d(v, data);\n", h+1)
		} else {
			sb.WriteString("        Cipher c = Cipher.getInstance(v, \"BC\");\n        c.update(data);\n")
		}
		sb.WriteString("    }\n\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// corpusSources returns the distinct Java sources of a generated corpus in
// a fixed order: each project's snapshot files by path, then both sides of
// its commits.
func corpusSources(seed int64) []string {
	c := corpus.Generate(corpus.Config{Seed: seed, Scale: 0.5, Projects: 60, ExtraProjects: 4})
	seen := map[string]bool{}
	var srcs []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			srcs = append(srcs, s)
		}
	}
	for _, p := range c.Projects {
		paths := make([]string, 0, len(p.Files))
		for path := range p.Files {
			if strings.HasSuffix(path, ".java") {
				paths = append(paths, path)
			}
		}
		slices.Sort(paths)
		for _, path := range paths {
			add(p.Files[path])
		}
		for _, cm := range p.Commits {
			add(cm.Old)
			add(cm.New)
		}
	}
	return srcs
}

// fuzzCorpus returns FuzzParse's seeds: the shared seed list, the two
// stress seeds FuzzParse adds, and the committed testdata/fuzz inputs.
func fuzzCorpus(t *testing.T) []string {
	srcs := slices.Clone(fuzzSeeds)
	srcs = append(srcs,
		"class D { void m() { "+strings.Repeat("if (x) { ", 60)+strings.Repeat("}", 60)+" } }",
		"class E { int x = "+strings.Repeat("(", 200)+"1"+strings.Repeat(")", 200)+"; }")
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if lit, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				srcs = append(srcs, s)
			}
		}
	}
	return srcs
}

// mutationInserts are the fragments a mutation splices in: each opens a
// construct the parser pairs up, splits or speculates on.
var mutationInserts = []string{"(", ">>", "->", "<T>", `"`, "/*"}

// mutate applies one to three seeded edits to src: a span deletion, a span
// duplication, a truncation, or an inserted fragment.
func mutate(r *rand.Rand, src string) string {
	for n := 1 + r.Intn(3); n > 0; n-- {
		i := 0
		if len(src) > 0 {
			i = r.Intn(len(src) + 1)
		}
		j := min(len(src), i+1+r.Intn(40))
		switch r.Intn(4) {
		case 0:
			src = src[:i] + src[j:]
		case 1:
			src = src[:j] + src[i:j] + src[j:]
		case 2:
			src = src[:i]
		default:
			src = src[:i] + mutationInserts[r.Intn(len(mutationInserts))] + src[i:]
		}
	}
	return src
}

// sourceGroup is one named, seeded list of sources the golden hashes.
type sourceGroup struct {
	name string
	srcs []string
}

// goldenGroups returns the sources TestParseGolden pins: generated corpus
// files and commit versions of three seeds, helper chains, pool programs,
// the fuzz corpus, and 50,000 seeded mutations drawn from all of them.
func goldenGroups(t *testing.T) []sourceGroup {
	var groups []sourceGroup
	var all []string
	add := func(name string, srcs []string) {
		groups = append(groups, sourceGroup{name, srcs})
		all = append(all, srcs...)
	}
	var cs []string
	for seed := int64(1); seed <= 3; seed++ {
		cs = append(cs, corpusSources(seed)...)
	}
	add("corpus", cs)
	r := rand.New(rand.NewSource(27))
	var hs []string
	for id := 0; id < 300; id++ {
		hs = append(hs, genHelperChain(r, id))
	}
	add("helper-chain", hs)
	var ps []string
	for id := 0; id < 1000; id++ {
		ps = append(ps, genPoolProgram(r, id))
	}
	add("pool", ps)
	add("fuzz", fuzzCorpus(t))
	ms := make([]string, 50000)
	for i := range ms {
		ms[i] = mutate(r, all[r.Intn(len(all))])
	}
	groups = append(groups, sourceGroup{"mutations", ms})
	return groups
}

// parseDigest hashes, for each source in order, the gob bytes of its unit
// and every error with its full position.
func parseDigest(t *testing.T, srcs []string) string {
	h := sha256.New()
	var n [8]byte
	for _, src := range srcs {
		res := Parse(src)
		b, err := javaast.GobEncode(res.Unit)
		if err != nil {
			t.Fatalf("gob: %v", err)
		}
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
		for _, e := range res.Errors {
			fmt.Fprintf(h, "%d:%d:%d %s\n", e.Pos.Offset, e.Pos.Line, e.Pos.Col, e.Msg)
		}
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestParseGolden pins what Parse returns, gob bytes of the unit and every
// error, over more than 50,000 seeded sources: one SHA-256 per group. A
// parser change that keeps every AST and error byte-identical keeps the
// parse artifacts of a warm -cache-dir valid. Regenerate with -update-parse
// only when a change to the AST or the errors is intended.
func TestParseGolden(t *testing.T) {
	var sb strings.Builder
	for _, g := range goldenGroups(t) {
		fmt.Fprintf(&sb, "%s %d %s\n", g.name, len(g.srcs), parseDigest(t, g.srcs))
	}
	got := sb.String()
	golden := filepath.Join("testdata", "parse.golden")
	if *updateParse {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-parse to create it)", err)
	}
	if got != string(want) {
		t.Errorf("parse digests changed:\ngot:\n%swant:\n%s", got, want)
	}
}

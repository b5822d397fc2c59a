package diffcode

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Figures 6-10), plus ablation benchmarks for the design
// choices called out in DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem .
//
// The figure benchmarks operate on a reduced-scale corpus so a single
// iteration stays in the hundreds of milliseconds; cmd/evalrepro runs the
// same code paths at full scale.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rules"
	"repro/internal/usage"
)

// benchCorpus is shared across figure benchmarks (generation excluded from
// timings via b.ResetTimer).
func benchCorpus() *Corpus {
	return GenerateCorpus(CorpusConfig{Seed: 1, Scale: 0.1, Projects: 60, ExtraProjects: 8})
}

const benchOld = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES";
    protected void setKey(Secret key) {
        try {
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key);
        } catch (Exception e) {}
    }
}
`

const benchNew = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES/CBC/PKCS5Padding";
    protected void setKeyAndIV(Secret key, String iv) {
        try {
            byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
            IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
        } catch (Exception e) {}
    }
}
`

// BenchmarkFigure6Pipeline regenerates the per-class filtering table: mine
// the corpus, analyze every change, extract and filter per target class.
func BenchmarkFigure6Pipeline(b *testing.B) {
	c := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEvaluation(c, Options{})
		tbl := e.Figure6()
		if len(tbl.Rows) != 6 {
			b.Fatal("figure 6 incomplete")
		}
	}
}

// BenchmarkFigure7Classification regenerates the fix/bug/none table under
// the CryptoLint rules CL1-CL5.
func BenchmarkFigure7Classification(b *testing.B) {
	c := benchCorpus()
	e := NewEvaluation(c, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := e.Figure7Data()
		if len(rows) != 15 {
			b.Fatalf("figure 7 rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure8Clustering regenerates the Cipher dendrogram. A larger
// corpus than the other figure benches guarantees a non-trivial survivor
// set to cluster; the survivors/op metric reports its size.
func BenchmarkFigure8Clustering(b *testing.B) {
	c := GenerateCorpus(CorpusConfig{Seed: 1, Scale: 0.35, Projects: 140, ExtraProjects: 0})
	e := NewEvaluation(c, Options{})
	survivors := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f8 := e.Figure8()
		survivors = len(f8.Survivors)
	}
	if survivors == 0 {
		b.Fatal("no survivors to cluster at bench scale")
	}
	b.ReportMetric(float64(survivors), "survivors/op")
}

// BenchmarkFigure9Rules renders the rule registry (cheap; included for
// completeness so every figure has a bench target).
func BenchmarkFigure9Rules(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !strings.Contains(core.Figure9().String(), "R13") {
			b.Fatal("figure 9 incomplete")
		}
	}
}

// BenchmarkFigure10Checker runs CryptoChecker over every project snapshot.
func BenchmarkFigure10Checker(b *testing.B) {
	c := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.CheckCorpus(c, Options{})
		if res.Projects == 0 {
			b.Fatal("no projects checked")
		}
	}
}

// BenchmarkDiffSources measures the end-to-end single-change path (parse →
// analyze → DAG → pair → diff) on the paper's Figure 2 example.
func BenchmarkDiffSources(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		changes := DiffSources(benchOld, benchNew, Cipher, Options{})
		if len(changes) != 1 {
			b.Fatal("unexpected change count")
		}
	}
}

// BenchmarkCheckSource measures single-file checking against all 13 rules
// through the checker's one entry point (a fresh checker per check, as the
// CheckSource facade builds), with witness traces off and on.
func BenchmarkCheckSource(b *testing.B) {
	src := `
class T {
    void run(Key key) throws Exception {
        Cipher c = Cipher.getInstance("DES");
        c.init(Cipher.ENCRYPT_MODE, key);
        MessageDigest md = MessageDigest.getInstance("MD5");
        SecureRandom r = new SecureRandom();
        r.setSeed(new byte[]{1, 2, 3});
    }
}
`
	sources := map[string]string{"Main.java": src}
	for _, why := range []bool{false, true} {
		b.Run(fmt.Sprintf("why=%t", why), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := NewChecker(nil, Options{}).CheckRequest(context.Background(), sources, RuleContext{}, why)
				if err != nil || len(out.Violations) == 0 {
					b.Fatalf("no violations found (err %v)", err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Hot paths (DESIGN.md §7): parser, interpreter, and clustering
// micro-benchmarks; the end-to-end workloads live in the bench module.
// ---------------------------------------------------------------------------

// benchSources is a small multi-file program exercising the parser and the
// interpreter together: field initialisers, branches, helper-method inlining.
func benchSources() map[string]string {
	return map[string]string{
		"A.java": benchOld,
		"B.java": benchNew,
		"C.java": `
class KeyTool {
    static final String DIGEST = "SHA-256";
    byte[] digest(byte[] in, int rounds) throws Exception {
        MessageDigest md = MessageDigest.getInstance(DIGEST);
        byte[] out = in;
        if (rounds > 1) { out = md.digest(out); }
        else { out = md.digest(in); }
        return out;
    }
    SecureRandom fresh() {
        SecureRandom r = new SecureRandom();
        r.setSeed(new byte[]{1, 2, 3});
        return r;
    }
}
`,
	}
}

// BenchmarkParser measures source → AST → indexed program, the first stage
// of every pipeline run (paper §4.1).
func BenchmarkParser(b *testing.B) {
	sources := benchSources()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog := analysis.ParseProgram(sources)
		if len(prog.Files) != len(sources) {
			b.Fatal("parse lost a file")
		}
	}
}

// BenchmarkInterpreterHotLoop measures the abstract interpreter's step loop
// (analysis §4.2) on a pre-parsed program, isolating interpretation cost
// from parsing.
func BenchmarkInterpreterHotLoop(b *testing.B) {
	prog := analysis.ParseProgram(benchSources())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.Analyze(prog, analysis.Options{})
		if len(res.Objs) == 0 {
			b.Fatal("no abstract objects")
		}
	}
}

// benchSurvivors mines a corpus once and returns every class's semantic
// survivors — the clustering benchmarks' shared input.
func benchSurvivors(b *testing.B) []UsageChange {
	c := GenerateCorpus(CorpusConfig{Seed: 1, Scale: 0.35, Projects: 140, ExtraProjects: 0})
	e := NewEvaluation(c, Options{})
	var all []UsageChange
	for _, class := range TargetClasses() {
		all = append(all, e.SortedSurvivors(class)...)
	}
	if len(all) < 4 {
		b.Skip("not enough survivors at bench scale")
	}
	return all
}

// BenchmarkClusteringDistMatrix measures the O(n²) pairwise usage-distance
// computation feeding agglomeration (paper §5).
func BenchmarkClusteringDistMatrix(b *testing.B) {
	all := benchSurvivors(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(cluster.DistMatrixPool(all, nil, nil)) != len(all) {
			b.Fatal("bad matrix")
		}
	}
}

// BenchmarkClusteringAgglomerate measures dendrogram construction under
// complete linkage given a precomputed distance matrix.
func BenchmarkClusteringAgglomerate(b *testing.B) {
	all := benchSurvivors(b)
	d := cluster.DistMatrixPool(all, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cluster.AgglomerateMatrix(d, cluster.Complete) == nil {
			b.Fatal("no dendrogram")
		}
	}
}

// ---------------------------------------------------------------------------
// Parallel pipeline (DESIGN.md §8): worker sweeps over the three pooled hot
// paths. Each sweep runs the identical workload at 1, 2, 4, and 8 workers —
// the -workers 1 sub-benchmark IS the serial pipeline (exact serial path),
// so the ratio between sub-benchmarks is the pool's speedup.
// ---------------------------------------------------------------------------

var workerSweep = []int{1, 2, 4, 8}

// benchMineCorpusAt mines the shared bench corpus end to end (parse +
// analyze both versions of every change) at a fixed worker count.
func benchMineCorpusAt(workers int) func(*testing.B) {
	return func(b *testing.B) {
		c := benchCorpus()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := New(Options{Workers: workers})
			if len(d.MineCorpus(c)) == 0 {
				b.Fatal("no changes mined")
			}
		}
	}
}

// benchDistMatrixAt computes the pairwise distance matrix over every
// class's survivors at a fixed worker count.
func benchDistMatrixAt(workers int) func(*testing.B) {
	return func(b *testing.B) {
		all := benchSurvivors(b)
		p := parallel.New(workers, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(cluster.DistMatrixPool(all, nil, p)) != len(all) {
				b.Fatal("bad matrix")
			}
		}
	}
}

// benchCheckCorpusAt runs CryptoChecker over every project snapshot at a
// fixed worker count.
func benchCheckCorpusAt(workers int) func(*testing.B) {
	return func(b *testing.B) {
		c := benchCorpus()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := core.CheckCorpus(c, Options{Workers: workers})
			if res.Projects == 0 {
				b.Fatal("no projects checked")
			}
		}
	}
}

// BenchmarkMineCorpusWorkers sweeps corpus mining — the pipeline's dominant
// cost — across worker counts.
func BenchmarkMineCorpusWorkers(b *testing.B) {
	for _, w := range workerSweep {
		b.Run(fmt.Sprintf("workers%d", w), benchMineCorpusAt(w))
	}
}

// BenchmarkClusteringDistMatrixWorkers sweeps the O(n²) distance matrix.
func BenchmarkClusteringDistMatrixWorkers(b *testing.B) {
	for _, w := range workerSweep {
		b.Run(fmt.Sprintf("workers%d", w), benchDistMatrixAt(w))
	}
}

// BenchmarkCheckCorpusWorkers sweeps the held-out checker evaluation.
func BenchmarkCheckCorpusWorkers(b *testing.B) {
	for _, w := range workerSweep {
		b.Run(fmt.Sprintf("workers%d", w), benchCheckCorpusAt(w))
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4)
// ---------------------------------------------------------------------------

// BenchmarkAblationDAGDepth sweeps the DAG expansion bound (paper: n=5).
// The reported metric semantic/op is the number of semantic survivors —
// depth 1 under-abstracts (argument changes invisible), depth ≥3 converges
// for this workload.
func BenchmarkAblationDAGDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 5, 7} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			semantic := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				changes := DiffSources(benchOld, benchNew, Cipher, Options{Depth: depth})
				kept, _ := Filter(changes)
				semantic = len(kept)
			}
			b.ReportMetric(float64(semantic), "semantic/op")
		})
	}
}

// BenchmarkAblationPairing compares minimum-distance DAG pairing (the
// paper's maximum matching) against naive order-based pairing on a change
// that reorders two cipher allocations. The match/op metric is 1 when the
// refactoring is recognized (all pairs at distance 0) and 0 when the
// pairing mismatches objects — naive pairing fails, IoU pairing succeeds.
func BenchmarkAblationPairing(b *testing.B) {
	oldSrc := `
class A {
    void m(Key k) throws Exception {
        Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
        a.init(Cipher.ENCRYPT_MODE, k);
        Cipher d = Cipher.getInstance("DES");
        d.init(Cipher.DECRYPT_MODE, k);
    }
}
`
	newSrc := `
class A {
    void m(Key k) throws Exception {
        Cipher d = Cipher.getInstance("DES");
        d.init(Cipher.DECRYPT_MODE, k);
        Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
        a.init(Cipher.ENCRYPT_MODE, k);
    }
}
`
	run := func(b *testing.B, pair func(old, new []*usage.Graph) int) {
		oldGs := BuildDAGs(oldSrc, Cipher, Options{})
		newGs := BuildDAGs(newSrc, Cipher, Options{})
		matched := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matched = pair(oldGs, newGs)
		}
		b.ReportMetric(float64(matched), "match/op")
	}
	b.Run("iou-matching", func(b *testing.B) {
		run(b, func(old, new []*usage.Graph) int {
			for _, pr := range usage.Pair(old, new, Cipher) {
				if usage.Dist(pr.Old, pr.New) != 0 {
					return 0
				}
			}
			return 1
		})
	})
	b.Run("naive-order", func(b *testing.B) {
		run(b, func(old, new []*usage.Graph) int {
			for i := range old {
				if usage.Dist(old[i], new[i]) != 0 {
					return 0
				}
			}
			return 1
		})
	})
}

// BenchmarkAblationLinkage compares dendrogram construction under the
// three linkages; complete linkage (the paper's choice) avoids the chaining
// that single linkage exhibits.
func BenchmarkAblationLinkage(b *testing.B) {
	c := GenerateCorpus(CorpusConfig{Seed: 1, Scale: 0.35, Projects: 140, ExtraProjects: 0})
	e := NewEvaluation(c, Options{})
	var all []UsageChange
	for _, class := range TargetClasses() {
		all = append(all, e.SortedSurvivors(class)...)
	}
	if len(all) < 4 {
		b.Skip("not enough survivors at bench scale")
	}
	d := cluster.DistMatrixPool(all, nil, nil)
	for name, linkage := range map[string]cluster.Linkage{
		"complete": cluster.Complete,
		"single":   cluster.Single,
		"average":  cluster.Average,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var root *cluster.Node
			for i := 0; i < b.N; i++ {
				root = cluster.AgglomerateMatrix(d, linkage)
			}
			b.ReportMetric(root.Height, "rootheight")
			// Cophenetic correlation: how faithfully this linkage's tree
			// preserves the usage distances (higher is better).
			b.ReportMetric(cluster.CopheneticCorrelation(d, root), "cophcorr")
		})
	}
}

// BenchmarkAblationShortestPaths compares the prefix-minimal feature sets
// (the paper's Removed/Added) against full path-set diffs: features/op
// counts the emitted feature paths — the minimal form stays compact.
func BenchmarkAblationShortestPaths(b *testing.B) {
	oldGs := BuildDAGs(benchOld, Cipher, Options{})
	newGs := BuildDAGs(benchNew, Cipher, Options{})
	if len(oldGs) != 1 || len(newGs) != 1 {
		b.Fatal("expected one DAG per version")
	}
	fullDiff := func() int {
		o := map[string]bool{}
		for _, p := range oldGs[0].Paths() {
			o[p.Key()] = true
		}
		n := 0
		for _, p := range newGs[0].Paths() {
			if !o[p.Key()] {
				n++
			}
		}
		return n
	}
	b.Run("shortest", func(b *testing.B) {
		count := 0
		for i := 0; i < b.N; i++ {
			changes := DiffSources(benchOld, benchNew, Cipher, Options{})
			count = len(changes[0].Added)
		}
		b.ReportMetric(float64(count), "features/op")
	})
	b.Run("full-paths", func(b *testing.B) {
		count := 0
		for i := 0; i < b.N; i++ {
			count = fullDiff()
		}
		b.ReportMetric(float64(count), "features/op")
	})
}

// BenchmarkRuleMatching measures per-rule evaluation over an analyzed
// program.
func BenchmarkRuleMatching(b *testing.B) {
	src := `
class T {
    void run(Key key, char[] pw) throws Exception {
        Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");
        Cipher r = Cipher.getInstance("RSA");
        MessageDigest md = MessageDigest.getInstance("SHA-1");
        PBEKeySpec p = new PBEKeySpec(pw, new byte[]{1,2}, 100, 256);
    }
}
`
	res := AnalyzeUsages(src, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rules.CheckPoolCtx(context.Background(), res, rules.Context{}, rules.All(), nil)) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkAblationForkBudget sweeps the analyzer's execution-fork cap
// (MaxStates). Low budgets join branch states early and can lose constants
// (the branched transformation test needs ≥2); large budgets cost time on
// branchy methods.
func BenchmarkAblationForkBudget(b *testing.B) {
	src := `
class C {
    void run(int mode, Key key) throws Exception {
        String t;
        if (mode == 0) { t = "AES/GCM/NoPadding"; }
        else if (mode == 1) { t = "AES/CBC/PKCS5Padding"; }
        else if (mode == 2) { t = "AES/CTR/NoPadding"; }
        else { t = "AES"; }
        Cipher c = Cipher.getInstance(t);
        c.init(Cipher.ENCRYPT_MODE, key);
    }
}
`
	for _, budget := range []int{1, 2, 4, 16, 64} {
		b.Run(fmt.Sprintf("maxstates%d", budget), func(b *testing.B) {
			opts := Options{}
			opts.Analysis.MaxStates = budget
			variants := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := diffAnalyze(src, opts)
				variants = res
			}
			b.ReportMetric(float64(variants), "transforms/op")
		})
	}
}

// diffAnalyze counts the distinct constant transformations observed on the
// single Cipher object (a precision proxy for the fork-budget ablation).
func diffAnalyze(src string, opts Options) int {
	gs := BuildDAGs(src, Cipher, opts)
	if len(gs) != 1 {
		return -1
	}
	n := 0
	for _, p := range gs[0].Paths() {
		if len(p) == 3 && strings.Contains(p[2], `arg1:"`) {
			n++
		}
	}
	return n
}

package javaparser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/javaast"
)

// mustParse parses src and fails the test on any recovered error.
func mustParse(t *testing.T, src string) *javaast.CompilationUnit {
	t.Helper()
	res := Parse(src)
	for _, e := range res.Errors {
		t.Errorf("unexpected parse error: %v", e)
	}
	return res.Unit
}

const paperExample = `
package com.example.crypto;

import javax.crypto.Cipher;
import javax.crypto.spec.IvParameterSpec;

class AESCipher {
    Cipher enc, dec;
    final String algorithm = "AES/CBC/PKCS5Padding";

    protected void setKeyAndIV(Secret key, String iv) {
        byte[] ivBytes;
        IvParameterSpec ivSpec;
        try {
            ivBytes = Hex.decodeHex(iv.toCharArray());
            ivSpec = new IvParameterSpec(ivBytes);
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
            dec = Cipher.getInstance(algorithm);
            dec.init(Cipher.DECRYPT_MODE, key, ivSpec);
        } catch (Exception e) {
            throw new RuntimeException(e);
        }
    }
}
`

func TestParsePaperExample(t *testing.T) {
	cu := mustParse(t, paperExample)
	if cu.Package != "com.example.crypto" {
		t.Errorf("package = %q", cu.Package)
	}
	if len(cu.Imports) != 2 || cu.Imports[0].Path != "javax.crypto.Cipher" {
		t.Errorf("imports = %+v", cu.Imports)
	}
	if len(cu.Types) != 1 {
		t.Fatalf("types = %d", len(cu.Types))
	}
	c := cu.Types[0]
	if c.Name != "AESCipher" || c.Kind != javaast.ClassKind {
		t.Errorf("class = %q kind=%d", c.Name, c.Kind)
	}
	// "Cipher enc, dec;" splits into two fields plus the algorithm field.
	if len(c.Fields) != 3 {
		t.Fatalf("fields = %d, want 3", len(c.Fields))
	}
	if c.Fields[0].Name != "enc" || c.Fields[1].Name != "dec" {
		t.Errorf("field names: %q, %q", c.Fields[0].Name, c.Fields[1].Name)
	}
	if c.Fields[2].Init == nil {
		t.Error("algorithm field has no initializer")
	}
	if got := c.Fields[2].Type.Name; got != "String" {
		t.Errorf("algorithm type = %q", got)
	}
	if len(c.Methods) != 1 {
		t.Fatalf("methods = %d", len(c.Methods))
	}
	m := c.Methods[0]
	if m.Name != "setKeyAndIV" || len(m.Params) != 2 {
		t.Errorf("method = %q params=%d", m.Name, len(m.Params))
	}
	if m.Params[0].Type.Name != "Secret" || m.Params[1].Name != "iv" {
		t.Errorf("params = %+v %+v", m.Params[0], m.Params[1])
	}
}

func TestParseConstructorAndOverloads(t *testing.T) {
	cu := mustParse(t, `
class KeyTool {
    private byte[] salt;
    KeyTool() { this(new byte[16]); }
    KeyTool(byte[] salt) { this.salt = salt; }
    static KeyTool of() { return new KeyTool(); }
}
`)
	c := cu.Types[0]
	var ctors, statics int
	for _, m := range c.Methods {
		if m.IsConstructor {
			ctors++
		}
		if m.IsStatic() {
			statics++
		}
	}
	if ctors != 2 {
		t.Errorf("constructors = %d, want 2", ctors)
	}
	if statics != 1 {
		t.Errorf("static methods = %d, want 1", statics)
	}
}

func TestParseGenerics(t *testing.T) {
	cu := mustParse(t, `
import java.util.Map;
class G<T extends Comparable<T>> {
    Map<String, java.util.List<byte[]>> cache;
    <U> U pick(Map<String, U> m, String k) { return m.get(k); }
    void shifts() { int x = 1 >> 2; int y = 8 >>> 1; x >>= 1; }
    void nested() { Map<String, Map<String, Integer>> mm = null; }
}
`)
	c := cu.Types[0]
	if len(c.Fields) != 1 || c.Fields[0].Name != "cache" {
		t.Fatalf("fields = %+v", c.Fields)
	}
	if got := c.Fields[0].Type.Name; got != "Map" {
		t.Errorf("erased type = %q, want Map", got)
	}
	if len(c.Methods) != 3 {
		t.Errorf("methods = %d, want 3", len(c.Methods))
	}
}

func TestParseControlFlow(t *testing.T) {
	cu := mustParse(t, `
class CF {
    int run(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) { acc += i; }
        for (String s : names) { acc++; }
        while (acc > 100) acc /= 2;
        do { acc++; } while (acc < 10);
        switch (acc) {
        case 1:
        case 2: acc = 0; break;
        default: acc = -1;
        }
        if (acc == 0) return 1; else if (acc < 0) return -1;
        outer:
        for (;;) { break outer; }
        synchronized (this) { acc++; }
        assert acc != 3 : "bad";
        return acc;
    }
}
`)
	m := cu.Types[0].Methods[0]
	if m.Body == nil {
		t.Fatal("no body")
	}
	kinds := map[string]bool{}
	javaast.Walk(m.Body, func(n javaast.Node) bool {
		switch n.(type) {
		case *javaast.ForStmt:
			kinds["for"] = true
		case *javaast.ForEachStmt:
			kinds["foreach"] = true
		case *javaast.WhileStmt:
			kinds["while"] = true
		case *javaast.DoStmt:
			kinds["do"] = true
		case *javaast.SwitchStmt:
			kinds["switch"] = true
		case *javaast.IfStmt:
			kinds["if"] = true
		case *javaast.LabeledStmt:
			kinds["label"] = true
		case *javaast.SyncStmt:
			kinds["sync"] = true
		case *javaast.AssertStmt:
			kinds["assert"] = true
		}
		return true
	})
	for _, k := range []string{"for", "foreach", "while", "do", "switch", "if", "label", "sync", "assert"} {
		if !kinds[k] {
			t.Errorf("missing %s statement in AST", k)
		}
	}
}

func TestParseTryCatchFinally(t *testing.T) {
	cu := mustParse(t, `
class T {
    void go() {
        try (InputStream in = open(); OutputStream out = sink()) {
            in.read();
        } catch (IOException | RuntimeException e) {
            log(e);
        } catch (final Exception e) {
            rethrow(e);
        } finally {
            close();
        }
    }
}
`)
	var try *javaast.TryStmt
	javaast.Walk(cu, func(n javaast.Node) bool {
		if t, ok := n.(*javaast.TryStmt); ok {
			try = t
		}
		return true
	})
	if try == nil {
		t.Fatal("no try statement")
	}
	if len(try.Resources) != 2 {
		t.Errorf("resources = %d, want 2", len(try.Resources))
	}
	if len(try.Catches) != 2 {
		t.Errorf("catches = %d, want 2", len(try.Catches))
	}
	if len(try.Catches[0].Types) != 1 {
		t.Errorf("multi-catch types = %v", try.Catches[0].Types)
	}
	if try.Finally == nil {
		t.Error("missing finally")
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct{ src, want string }{
		{`a + b * c`, `(a + (b * c))`},
		{`(a + b) * c`, `((a + b) * c)`},
		{`a == b && c != d || e`, `(((a == b) && (c != d)) || e)`},
		{`x = y = z`, `x = y = z`},
		{`c ? t : f`, `(c ? t : f)`},
		{`(Cipher) obj`, `(Cipher) obj`},
		{`(int) x`, `(int) x`},
		{`(a) - b`, `(a - b)`}, // subtraction, not a cast
		{`(byte) - 1`, `(byte) -1`},
		{`x instanceof Cipher`, `x instanceof Cipher`},
		{`new int[4]`, `new int[4]`},
		{`new byte[]{1, 2}`, `new byte[]{1, 2}`},
		{`new javax.crypto.spec.IvParameterSpec(iv)`, `new javax.crypto.spec.IvParameterSpec(iv)`},
		{`arr[i+1]`, `arr[(i + 1)]`},
		{`a.b.c`, `a.b.c`},
		{`Cipher.getInstance("AES")`, `Cipher.getInstance("AES")`},
		{`obj.m(1, "s").n()`, `obj.m(1, "s").n()`},
		{`-x++`, `-x++`},
		{`!flag`, `!flag`},
		{`~bits`, `~bits`},
		{`String.class`, `String.class`},
		{`x -> x`, `(x) -> {...}`},
		{`() -> run()`, `() -> {...}`},
		{`(a, b) -> a`, `(a, b) -> {...}`},
		{`List::of`, `List::of`},
		{`1 << 3 | 1 >> 2`, `((1 << 3) | (1 >> 2))`},
		{`a >>> 2`, `(a >>> 2)`},
		{`"s" + 1 + 'c'`, `(("s" + 1) + 'c')`},
	}
	for _, c := range cases {
		res := Parse("class X { void m() { Object o = " + c.src + "; } }")
		if len(res.Errors) > 0 {
			t.Errorf("%s: parse errors %v", c.src, res.Errors)
			continue
		}
		var init javaast.Expr
		javaast.Walk(res.Unit, func(n javaast.Node) bool {
			if d, ok := n.(*javaast.LocalVarDecl); ok && d.Name == "o" {
				init = d.Init
			}
			return true
		})
		if init == nil {
			t.Errorf("%s: initializer not found", c.src)
			continue
		}
		if got := javaast.ExprString(init); got != c.want {
			t.Errorf("%s: got %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseEnum(t *testing.T) {
	cu := mustParse(t, `
public enum Mode {
    ECB, CBC("iv"), GCM {
        void x() {}
    };
    private final String tag;
    Mode() { this.tag = ""; }
    Mode(String t) { this.tag = t; }
}
`)
	e := cu.Types[0]
	if e.Kind != javaast.EnumKind {
		t.Fatalf("kind = %d", e.Kind)
	}
	if len(e.EnumConsts) != 3 {
		t.Errorf("enum constants = %v", e.EnumConsts)
	}
	if len(e.Methods) != 2 {
		t.Errorf("enum constructors = %d", len(e.Methods))
	}
}

func TestParseInterfaceAndNested(t *testing.T) {
	cu := mustParse(t, `
public interface Store extends AutoCloseable, Iterable<String> {
    int size();
    default boolean isEmpty() { return size() == 0; }
    class Holder {
        static final Store EMPTY = null;
    }
}
`)
	i := cu.Types[0]
	if i.Kind != javaast.InterfaceKind {
		t.Fatal("not an interface")
	}
	if len(i.Methods) != 2 {
		t.Errorf("methods = %d", len(i.Methods))
	}
	if len(i.Nested) != 1 || i.Nested[0].Name != "Holder" {
		t.Errorf("nested = %+v", i.Nested)
	}
	if i.Methods[0].Body != nil {
		t.Error("abstract method has body")
	}
	if i.Methods[1].Body == nil {
		t.Error("default method lost body")
	}
}

func TestParseAnnotationsSkipped(t *testing.T) {
	cu := mustParse(t, `
@SuppressWarnings("unchecked")
public class A {
    @Override
    @Deprecated
    public String toString() { return "a"; }
    @Inject private Cipher c;
    void m(@NotNull final String s) {}
}
`)
	c := cu.Types[0]
	if len(c.Methods) != 2 || len(c.Fields) != 1 {
		t.Errorf("methods=%d fields=%d", len(c.Methods), len(c.Fields))
	}
}

func TestParseAnonymousClass(t *testing.T) {
	cu := mustParse(t, `
class A {
    Runnable r = new Runnable() {
        public void run() { work(); }
    };
}
`)
	var anon *javaast.New
	javaast.Walk(cu, func(n javaast.Node) bool {
		if nn, ok := n.(*javaast.New); ok {
			anon = nn
		}
		return true
	})
	if anon == nil || anon.Body == nil {
		t.Fatal("anonymous class body not parsed")
	}
	if len(anon.Body.Methods) != 1 {
		t.Errorf("anon methods = %d", len(anon.Body.Methods))
	}
}

func TestParseStaticInit(t *testing.T) {
	cu := mustParse(t, `
class A {
    static { setup(); }
    { instanceInit(); }
}
`)
	c := cu.Types[0]
	if len(c.Methods) != 2 {
		t.Fatalf("methods = %d", len(c.Methods))
	}
	if c.Methods[0].Name != "<static-init>" {
		t.Errorf("first = %q", c.Methods[0].Name)
	}
	if c.Methods[1].Name != "<instance-init>" {
		t.Errorf("second = %q", c.Methods[1].Name)
	}
}

func TestErrorRecoveryMember(t *testing.T) {
	res := Parse(`
class A {
    void good1() { fine(); }
    void broken( { this is nonsense %%%
    void good2() { alsoFine(); }
}
class B { void ok() {} }
`)
	if len(res.Errors) == 0 {
		t.Fatal("expected recovered errors")
	}
	if len(res.Unit.Types) != 2 {
		t.Fatalf("types = %d, want 2 (recovery failed)", len(res.Unit.Types))
	}
	names := map[string]bool{}
	for _, m := range res.Unit.Types[0].Methods {
		names[m.Name] = true
	}
	if !names["good1"] {
		t.Error("lost good1")
	}
	if !names["good2"] {
		t.Error("lost good2 after broken member")
	}
}

func TestErrorRecoveryStatement(t *testing.T) {
	res := Parse(`
class A {
    void m() {
        int x = 1;
        %%% garbage ;
        int y = 2;
    }
}
`)
	if len(res.Errors) == 0 {
		t.Fatal("expected errors")
	}
	var names []string
	javaast.Walk(res.Unit, func(n javaast.Node) bool {
		if d, ok := n.(*javaast.LocalVarDecl); ok {
			names = append(names, d.Name)
		}
		return true
	})
	want := "x y"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("recovered decls = %q, want %q", got, want)
	}
}

func TestPartialSnippet(t *testing.T) {
	// A snippet without a class wrapper fails gracefully (no panic) and a
	// library file without main parses fully.
	res := Parse(`enc = Cipher.getInstance("AES");`)
	if res.Unit == nil {
		t.Fatal("nil unit")
	}
	res = Parse(`
package lib;
public class Util {
    public static byte[] digest(byte[] in) throws Exception {
        MessageDigest md = MessageDigest.getInstance("SHA-256");
        return md.digest(in);
    }
}
`)
	if len(res.Errors) != 0 {
		t.Errorf("library parse errors: %v", res.Errors)
	}
}

func TestVarargsAndArrays(t *testing.T) {
	cu := mustParse(t, `
class V {
    void log(String fmt, Object... args) {}
    int[] grid()[] { return null; }
    void m(int arr[], byte raw[][]) {}
}
`)
	c := cu.Types[0]
	if !c.Methods[0].Params[1].Variadic {
		t.Error("varargs not detected")
	}
	if c.Methods[0].Params[1].Type.Dims != 1 {
		t.Errorf("varargs dims = %d", c.Methods[0].Params[1].Type.Dims)
	}
	if c.Methods[1].ReturnType.Dims != 2 {
		t.Errorf("grid return dims = %d", c.Methods[1].ReturnType.Dims)
	}
	if c.Methods[2].Params[0].Type.Dims != 1 || c.Methods[2].Params[1].Type.Dims != 2 {
		t.Error("C-style array dims on params not handled")
	}
}

func TestParseNeverPanics(t *testing.T) {
	inputs := []string{
		"", "}", "{", "class", "class A", "class A {", "class A { void",
		"class A { int x = ; }", "@", "class A { void m() { if } }",
		"interface I { int x = }", "enum E { , }", "class A { A() : }",
		"class A { void m() { new ; } }",
		"class A { void m() { a.b.(); } }",
		"class A { void m() { ((((( } }",
	}
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			Parse(src)
		}()
	}
}

func BenchmarkParse(b *testing.B) {
	b.Run("paper-example", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(paperExample)))
		for i := 0; i < b.N; i++ {
			Parse(paperExample)
		}
	})
	// One op parses every source of a small generated corpus: the project
	// snapshots and both sides of every commit, as mining reads them.
	b.Run("corpus", func(b *testing.B) {
		srcs := corpusSample()
		var n int64
		for _, s := range srcs {
			n += int64(len(s))
		}
		b.ReportAllocs()
		b.SetBytes(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				Parse(s)
			}
		}
	})
	// One op parses 20 programs shaped like the checker benchmark's
	// helper-heavy inputs: long runs of string locals and helper calls.
	b.Run("helper-chain", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		srcs := make([]string, 20)
		var n int64
		for i := range srcs {
			srcs[i] = genHelperChain(r, i)
			n += int64(len(srcs[i]))
		}
		b.ReportAllocs()
		b.SetBytes(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				Parse(s)
			}
		}
	})
}

// corpusSample returns the Java sources of a small generated corpus.
func corpusSample() []string {
	c := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.05, Projects: 8, ExtraProjects: 1})
	var srcs []string
	for _, p := range c.Projects {
		for path, src := range p.Files {
			if strings.HasSuffix(path, ".java") {
				srcs = append(srcs, src)
			}
		}
		for _, cm := range p.Commits {
			srcs = append(srcs, cm.Old, cm.New)
		}
	}
	return srcs
}

// TestRestoreUndoesDistantSplits pins that a failed speculation undoes every
// '>>' split it made, however far past its start. Here tryParseCast reads
// "(a < t0 + … + t39 >>" as the type a<…> and splits the ">>" to close it;
// the shift sits ~80 tokens in, past any fixed-size token window, and must
// come back as ">>" when the cast attempt is abandoned.
func TestRestoreUndoesDistantSplits(t *testing.T) {
	terms := make([]string, 40)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
	}
	src := "class A { void m() { int z = (a < " + strings.Join(terms, " + ") + " >> 2); } }"
	cu := mustParse(t, src)
	var init javaast.Expr
	javaast.Walk(cu, func(n javaast.Node) bool {
		if d, ok := n.(*javaast.LocalVarDecl); ok && d.Name == "z" {
			init = d.Init
		}
		return true
	})
	lt, ok := init.(*javaast.Binary)
	if !ok || lt.Op != "<" {
		t.Fatalf("z = %s, want a < (… >> 2)", javaast.ExprString(init))
	}
	if name, ok := lt.L.(*javaast.Name); !ok || name.Ident != "a" {
		t.Errorf("left of < = %s, want a", javaast.ExprString(lt.L))
	}
	shr, ok := lt.R.(*javaast.Binary)
	if !ok || shr.Op != ">>" {
		t.Fatalf("right of < = %s, want (… >> 2)", javaast.ExprString(lt.R))
	}
	if lit, ok := shr.R.(*javaast.Literal); !ok || lit.Value != "2" {
		t.Errorf("shift amount = %s, want 2", javaast.ExprString(shr.R))
	}
	sum, ok := shr.L.(*javaast.Binary)
	if !ok || sum.Op != "+" {
		t.Errorf("shifted operand = %s, want the sum of the 40 terms", javaast.ExprString(shr.L))
	}
}

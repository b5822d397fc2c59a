package javaast_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/javaast"
	"repro/internal/javaparser"
)

func firstMethod(t *testing.T, src string) *javaast.MethodDecl {
	t.Helper()
	res := javaparser.Parse(src)
	if len(res.Errors) != 0 {
		t.Fatalf("parse: %v", res.Errors[0])
	}
	return res.Unit.Types[0].Methods[0]
}

// TestLocals pins the name list: parameters first, then declarations and
// simple-name assignments in order of first occurrence, each once.
func TestLocals(t *testing.T) {
	m := firstMethod(t, `class C {
    void f(int a, String b) {
        int x = 1;
        y = x;
        for (String s : list) { x = 2; }
        try (InputStream in = open()) {
        } catch (IOException e) {
            String x = "again";
        }
        this.f = 3;
        a = 4;
        arr[0] = 5;
        z += 1;
    }
}`)
	l := m.Locals()
	want := []string{"a", "b", "x", "y", "s", "in", "e", "z"}
	if !reflect.DeepEqual(l.Names, want) {
		t.Errorf("Names = %v, want %v", l.Names, want)
	}
	if l.Index != nil {
		t.Errorf("Index = %v for %d names, want nil", l.Index, len(l.Names))
	}
	if m.Locals() != l {
		t.Error("a second call computed the names again")
	}
}

// TestLocalsIndex checks the index a long name list carries.
func TestLocalsIndex(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("class C { void f(int p) {\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "String s%d = \"x\";\ns%d = \"y\";\n", i, i)
	}
	sb.WriteString("} }")
	l := firstMethod(t, sb.String()).Locals()
	if len(l.Names) != 41 || l.Names[0] != "p" || l.Names[40] != "s39" {
		t.Fatalf("Names = %v, want p then s0..s39", l.Names)
	}
	for i, n := range l.Names {
		if l.Index[n] != i {
			t.Errorf("Index[%s] = %d, want %d", n, l.Index[n], i)
		}
	}
	if len(l.Index) != len(l.Names) {
		t.Errorf("Index has %d names, want %d", len(l.Index), len(l.Names))
	}
}

// TestDeterminismLocalsConcurrent has goroutines race on the first use of
// a method's names (ASTs are shared across goroutines through the parse
// store): all of them must see one list.
func TestDeterminismLocalsConcurrent(t *testing.T) {
	m := firstMethod(t, `class C { void f(int a) { int b = a; c = b; } }`)
	got := make([]*javaast.Locals, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Locals()
		}()
	}
	wg.Wait()
	for _, l := range got {
		if l != got[0] {
			t.Fatal("goroutines saw different name lists")
		}
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(got[0].Names, want) {
		t.Errorf("Names = %v, want %v", got[0].Names, want)
	}
}

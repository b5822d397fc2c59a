package rules

import (
	"context"
	"strings"
	"testing"
)

func TestExplain(t *testing.T) {
	res := analyze(t, wrap(`
        Cipher c = Cipher.getInstance("DES");
        c.init(Cipher.ENCRYPT_MODE, key);`))
	vs := CheckPoolCtx(context.Background(), res, Context{}, []*Rule{R8}, nil)
	if len(vs) != 1 {
		t.Fatalf("violations = %d", len(vs))
	}
	out := Explain(vs[0], res)
	for _, want := range []string{
		"R8:", "Do not use Cipher with DES",
		"rule: Cipher : getInstance(X, …) ∧ alg(X, DES)",
		"Cipher@l", `Cipher.getInstance("DES")`,
		"Cipher.init(ENCRYPT_MODE, Key)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestFormatEvent(t *testing.T) {
	res := analyze(t, wrap(`MessageDigest md = MessageDigest.getInstance("SHA-1");`))
	objs := res.ObjsOfType("MessageDigest")
	if len(objs) != 1 {
		t.Fatal("no digest object")
	}
	got := FormatEvent(res.Uses[objs[0]][0])
	if got != `MessageDigest.getInstance("SHA-1")` {
		t.Errorf("FormatEvent = %q", got)
	}
}

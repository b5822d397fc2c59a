package analysis

import (
	"testing"

	"repro/internal/absdom"
	"repro/internal/obs"
	"repro/internal/summary"
)

// The interpreter's local-variable semantics, pinned through observable
// events: each case's sink is one Cipher.getInstance whose argument label
// shows what the name resolved to. Every case runs live and over a summary
// table, provenance off and on.

// sinkEvents analyzes src and renders the events of its Cipher objects, in
// object order.
func sinkEvents(src string, opts Options) []string {
	res := AnalyzeSource(src, opts)
	var out []string
	for _, o := range res.ObjsOfType("Cipher") {
		out = append(out, evKeys(res, o)...)
	}
	return out
}

// localsOptions are the four interpreter configurations every locals case
// must agree under.
func localsOptions() map[string]Options {
	return map[string]Options{
		"live":      {},
		"memo":      {Summaries: summary.NewTable(nil, obs.NewRegistry())},
		"live+prov": {Provenance: true},
		"memo+prov": {Provenance: true, Summaries: summary.NewTable(nil, obs.NewRegistry())},
	}
}

func TestLocalsSemantics(t *testing.T) {
	for _, c := range []struct {
		name string
		src  string
		want []string
	}{
		{
			// assignTo binds an undeclared name to the unrefined right-hand
			// side, here a void call's invalid result. The name is then
			// bound, so it does not fall back to an unknown ⊤obj.
			name: "bound invalid local",
			src: `class C {
    void entry() {
        x = nothing();
        Cipher c = Cipher.getInstance(x);
    }
    void nothing() { }
}`,
			want: []string{"Cipher.getInstance <invalid>"},
		},
		{
			// Initializer blocks run on the entry's own state, so their
			// locals share the entry method's namespace.
			name: "init-block locals seen by the entry",
			src: `class C {
    { String alg = "DES"; }
    void entry() {
        Cipher c = Cipher.getInstance(alg);
    }
}`,
			want: []string{`Cipher.getInstance "DES"`},
		},
		{
			// k is declared twice; the later assignment refines with the
			// type of the declaration executed last (the else branch).
			name: "redeclaration in branches",
			src: `class C {
    void entry(boolean b) {
        if (b) { byte[] k = null; } else { String k = null; }
        k = unknown.call();
        Cipher c = Cipher.getInstance(k);
    }
}`,
			want: []string{"Cipher.getInstance ⊤str"},
		},
		{
			name: "redeclaration in sequence",
			src: `class C {
    void entry() {
        String k = null;
        byte[] k = null;
        k = unknown.call();
        Cipher c = Cipher.getInstance(k);
    }
}`,
			want: []string{"Cipher.getInstance ⊤byte[]"},
		},
		{
			name: "undeclared assignment becomes a local",
			src: `class C {
    void entry() {
        alg = "AES/ECB/PKCS5Padding";
        Cipher c = Cipher.getInstance(alg);
    }
}`,
			want: []string{`Cipher.getInstance "AES/ECB/PKCS5Padding"`},
		},
		{
			// A callee sees none of its caller's locals, and its own locals
			// are gone when it returns.
			name: "callee gets a fresh namespace",
			src: `class C {
    void entry() {
        String alg = "DES";
        helper();
        leak();
        Cipher d = Cipher.getInstance(k);
    }
    void helper() {
        Cipher c = Cipher.getInstance(alg);
    }
    void leak() {
        String k = "RC4";
    }
}`,
			want: []string{"Cipher.getInstance ⊤obj", "Cipher.getInstance ⊤obj"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			for name, opts := range localsOptions() {
				got := sinkEvents(c.src, opts)
				if len(got) != len(c.want) {
					t.Fatalf("%s: sinks %q, want %q", name, got, c.want)
				}
				for i := range got {
					if got[i] != c.want[i] {
						t.Errorf("%s: sink %d = %q, want %q", name, i, got[i], c.want[i])
					}
				}
			}
		})
	}
}

// TestLocalsOneSidedJoin forces every fork to be joined (MaxStates 1): a
// local bound on one branch only keeps that branch's value and its own
// provenance chain, with no join step, whichever branch binds it.
func TestLocalsOneSidedJoin(t *testing.T) {
	for name, src := range map[string]string{
		"then": `class C {
    void entry(boolean b) {
        if (b) { alg = "DES"; }
        Cipher c = Cipher.getInstance(alg);
    }
}`,
		"else": `class C {
    void entry(boolean b) {
        if (b) { } else { alg = "DES"; }
        Cipher c = Cipher.getInstance(alg);
    }
}`,
	} {
		res := AnalyzeSource(src, Options{MaxStates: 1, Provenance: true})
		cs := res.ObjsOfType("Cipher")
		if len(cs) != 1 || len(res.Uses[cs[0]]) != 1 {
			t.Fatalf("%s: want one Cipher with one event, got %d objects", name, len(cs))
		}
		arg := res.Uses[cs[0]][0].Args[0]
		if !arg.Equal(absdom.StrConst("DES")) {
			t.Errorf("%s: joined alg = %s, want \"DES\"", name, arg.Label())
		}
		if arg.Prov == nil || arg.Prov.Kind != absdom.ProvAssign {
			t.Errorf("%s: joined alg's last step = %v, want its own assignment", name, arg.Prov)
		}
	}
}

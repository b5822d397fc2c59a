package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
)

// deepChainDES hides a DES misuse six helper calls deep — past the depth-4
// cliff of the paper's bounded inliner.
const deepChainDES = `class Deep {
    void entry() {
        h1("DES");
    }
    void h1(String a) { h2(a); }
    void h2(String a) { h3(a); }
    void h3(String a) { h4(a); }
    void h4(String a) { h5(a); }
    void h5(String a) { h6(a); }
    void h6(String a) {
        Cipher c = Cipher.getInstance(a);
    }
}
`

func checkViolationIDs(resp CheckResponse) []string {
	var ids []string
	for _, v := range resp.Violations {
		ids = append(ids, v.Rule)
	}
	return ids
}

// TestCheckSummariesDefaultLiftsDepth pins the server default: the depth-6
// misuse is detected with no option set, and the first request records
// into the process-lifetime summary table.
func TestCheckSummariesDefaultLiftsDepth(t *testing.T) {
	s := newTestServer(t, Options{})
	sources := map[string]string{"Deep.java": deepChainDES}
	body := checkBody(t, CheckRequest{Sources: sources, Rules: []string{"R8"}})

	var resp CheckResponse
	w := post(t, s, "/v1/check", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	decodeResp(t, w, &resp)
	if ids := checkViolationIDs(resp); len(ids) != 1 || ids[0] != "R8" {
		t.Fatalf("violations = %v, want [R8]", ids)
	}
	if hits := s.Metrics().Counter("summary.misses").Value(); hits < 1 {
		t.Errorf("summary.misses = %d after first request, want >= 1", hits)
	}
}

// helperChain is program i: entry passes alg down a chain of depth helper
// calls to Cipher.getInstance. Every i yields distinct sources, so no two
// programs share a summary or check key.
func helperChain(i, depth int, alg string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "class Chain%d {\n    void entry() { h1(\"%s\"); }\n", i, alg)
	for d := 1; d < depth; d++ {
		fmt.Fprintf(&sb, "    void h%d(String a%d) { h%d(a%d); }\n", d, i, d+1, i)
	}
	fmt.Fprintf(&sb, "    void h%d(String a) { Cipher c = Cipher.getInstance(a); }\n}\n", depth)
	return sb.String()
}

// TestDifferentialBoundedObjectTier sends 200 distinct helper-chain checks
// to a server whose store holds at most 64 objects, summaries included.
// The object tier resets many times under the load, the artifact.objects
// gauge never reads above the cap, and every reply reports exactly the
// planted misuse.
func TestDifferentialBoundedObjectTier(t *testing.T) {
	const objCap = 64
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{
		Checker:   core.Options{Metrics: reg},
		Artifacts: artifact.New(artifact.Config{ObjEntries: objCap, Metrics: reg}),
	})
	check := func(i int) {
		t.Helper()
		alg, want := "DES", "[R8]"
		if i%3 == 0 {
			alg, want = "AES/GCM/NoPadding", "[]"
		}
		src := helperChain(i, 2+i%6, alg)
		w := post(t, s, "/v1/check", checkBody(t, CheckRequest{
			Sources: map[string]string{fmt.Sprintf("Chain%d.java", i): src},
			Rules:   []string{"R8"},
		}))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, w.Code, w.Body.String())
		}
		var resp CheckResponse
		decodeResp(t, w, &resp)
		if got := fmt.Sprint(checkViolationIDs(resp)); got != want {
			t.Fatalf("request %d: violations %s, want %s\n%s", i, got, want, src)
		}
		if n := reg.Gauge("artifact.objects").Value(); n > objCap {
			t.Fatalf("request %d: artifact.objects = %d, cap %d", i, n, objCap)
		}
	}
	for i := 0; i < 200; i++ {
		check(i)
	}
	if reg.Counter("artifact.eviction.resets").Value() == 0 {
		t.Fatalf("the load never reset the object tier: %v", obs.TakeSnapshot(reg, false).Counters)
	}
	// The first program's summaries went with the resets: checking it
	// again records them again.
	misses := reg.Counter("summary.misses").Value()
	check(0)
	if reg.Counter("summary.misses").Value() == misses {
		t.Fatal("the first program's summaries outlived the object tier's resets")
	}
}

package serve

import (
	"net/http"
	"testing"
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

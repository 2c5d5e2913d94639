package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"tempart/internal/cluster"
	"tempart/internal/mesh"
	"tempart/internal/temporal"
)

// requestKinds indexes the job kinds for the fuzzer.
var requestKinds = []string{kindPartition, kindRepartition, kindSubtree}

// subtreeBody renders a subtree RPC body with the given part range.
func subtreeBody(t testing.TB, firstPart, k int) string {
	raw, err := json.Marshal(cluster.SubtreeWire{
		Mesh:      cluster.MeshRef{Gen: "CUBE", Scale: 0.01},
		Strategy:  "MC_TL",
		FirstPart: firstPart,
		K:         k,
		Vertices:  cluster.PackInt32s([]int32{0, 1, 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// FuzzPartitionRequest hammers the one request codec with arbitrary bytes
// for every request kind under both content types. The decoder must never
// panic; every rejection must be a requestError carrying a 4xx status, so a
// malformed body can never surface as a 5xx or reach the worker pool.
func FuzzPartitionRequest(f *testing.F) {
	const partition, repartition, subtree = 0, 1, 2
	f.Add(uint8(partition), `{"mesh":"CYLINDER","scale":0.01,"k":16,"strategy":"MC_TL"}`, "", true)
	f.Add(uint8(partition), `{"mesh":"CUBE","scale":0.05,"k":4,"strategy":"SC_OC","options":{"seed":7,"trials":2}}`, "", true)
	f.Add(uint8(partition), `{"mesh":`, "", true)
	f.Add(uint8(partition), `null`, "", true)
	f.Add(uint8(partition), `{}`, "", true)
	f.Add(uint8(partition), `{"mesh":"CUBE","scale":1e308,"k":-1,"strategy":""}`, "", true)
	f.Add(uint8(partition), "TMSH garbage", "k=4&strategy=MC_TL", false)
	f.Add(uint8(partition), "", "k=0&strategy=nope&seed=x&tol=NaN", false)
	var buf strings.Builder
	m := mesh.Strip([]temporal.Level{0, 1, 2, 1, 0})
	_ = m.Encode(&buf)
	f.Add(uint8(partition), buf.String(), "k=2&strategy=SC_OC&seed=1", false)
	// A timeout_ms whose nanoseconds overflow int64 must still leave a
	// positive deadline no longer than the server's.
	f.Add(uint8(partition), `{"mesh":"CUBE","scale":0.05,"k":4,"strategy":"MC_TL","timeout_ms":10000000000000}`, "", true)
	f.Add(uint8(repartition), `{"mesh":"CUBE","scale":0.01,"k":2,"strategy":"MC_TL","parent":[0,1],"mode":"refine"}`, "", true)
	f.Add(uint8(repartition), buf.String(), "k=2&strategy=MC_TL&parent_hash=ab&migration_penalty=2", false)
	f.Add(uint8(subtree), subtreeBody(f, 4, 4), "", true)
	// first_part + k overflows int: both must be rejected, never run.
	f.Add(uint8(subtree), subtreeBody(f, math.MaxInt64, 1), "", true)
	f.Add(uint8(subtree), subtreeBody(f, 1, math.MaxInt64), "", true)

	limits := Config{}.withDefaults()
	f.Fuzz(func(t *testing.T, kind uint8, body, rawQuery string, isJSON bool) {
		ctype := "application/octet-stream"
		if isJSON {
			ctype = "application/json"
		}
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			q = url.Values{}
		}
		req, err := decodeRequest(requestKinds[int(kind)%len(requestKinds)], ctype, q, []byte(body))
		if err != nil {
			var rerr *requestError
			if !errors.As(err, &rerr) {
				t.Fatalf("decode error is not a requestError: %T %v", err, err)
			}
			if rerr.code < 400 || rerr.code > 499 {
				t.Fatalf("decode failure mapped to %d, want 4xx: %v", rerr.code, rerr.msg)
			}
			return
		}
		// Accepted requests must be fully canonical and in bounds: the worker
		// and cache key trust these invariants.
		b := req.base()
		if b.uploaded == nil && !slices.Contains(generatorNames, b.Name) {
			t.Fatalf("accepted unknown generator %q", b.Name)
		}
		if b.K < 1 || b.K > maxK {
			t.Fatalf("accepted k = %d", b.K)
		}
		if st, ok := req.(*subtreeRequest); ok && (st.FirstPart < 0 || st.FirstPart > maxK-st.K) {
			t.Fatalf("accepted subtree part range [%d, %d+%d)", st.FirstPart, st.FirstPart, st.K)
		}
		if b.Strategy != b.strat.String() {
			t.Fatalf("strategy not canonicalized: %q vs %q", b.Strategy, b.strat.String())
		}
		if b.Options.Method != "rb" && b.Options.Method != "kway" {
			t.Fatalf("accepted method %q", b.Options.Method)
		}
		if d := limits.jobTimeout(b.TimeoutMS); d <= 0 || d > limits.DefaultTimeout {
			t.Fatalf("timeout_ms = %d gives a deadline of %v, want (0, %v]", b.TimeoutMS, d, limits.DefaultTimeout)
		}
		_ = req.key() // must not panic
	})
}

// TestDecodeRejects415 pins the only non-4xx-on-body path: an unsupported
// content type, which maps to 415 rather than 400.
func TestDecodeRejects415(t *testing.T) {
	_, err := decodeRequest(kindPartition, "text/html", url.Values{}, []byte("<p>"))
	var rerr *requestError
	if !errors.As(err, &rerr) || rerr.code != http.StatusUnsupportedMediaType {
		t.Fatalf("got %v, want 415 requestError", err)
	}
}

// TestSubtreeDecodeRejects pins the subtree RPC's bounds: the codec rejects
// every malformed task with a 4xx before it reaches the worker pool. The
// part-range rows would overflow a first_part+k sum.
func TestSubtreeDecodeRejects(t *testing.T) {
	edit := func(mut func(w *cluster.SubtreeWire)) string {
		w := cluster.SubtreeWire{
			Mesh:      cluster.MeshRef{Gen: "CUBE", Scale: 0.01},
			Strategy:  "MC_TL",
			FirstPart: 4,
			K:         4,
			Vertices:  cluster.PackInt32s([]int32{0, 1, 2}),
		}
		mut(&w)
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	cases := []struct {
		name, ctype, body string
		code              int
	}{
		{"first_part max int, k 1", "application/json", subtreeBody(t, math.MaxInt64, 1), 400},
		{"first_part 1, k max int", "application/json", subtreeBody(t, 1, math.MaxInt64), 400},
		{"part range past maxK", "application/json", subtreeBody(t, maxK-1, 2), 400},
		{"first_part negative", "application/json", subtreeBody(t, -1, 2), 400},
		{"k zero", "application/json", subtreeBody(t, 0, 0), 400},
		{"unknown mesh", "application/json", edit(func(w *cluster.SubtreeWire) { w.Mesh.Gen = "TORUS" }), 400},
		{"scale zero", "application/json", edit(func(w *cluster.SubtreeWire) { w.Mesh.Scale = 0 }), 400},
		{"corrupt tmsh", "application/json", edit(func(w *cluster.SubtreeWire) { w.Mesh.TMSH = []byte("TMSH?") }), 400},
		{"bad strategy", "application/json", edit(func(w *cluster.SubtreeWire) { w.Strategy = "nope" }), 400},
		{"no vertices", "application/json", edit(func(w *cluster.SubtreeWire) { w.Vertices = nil }), 400},
		{"ragged vertices", "application/json", edit(func(w *cluster.SubtreeWire) { w.Vertices = []byte{1, 2, 3} }), 400},
		{"init_trials negative", "application/json", edit(func(w *cluster.SubtreeWire) { w.Options.InitTrials = -1 }), 400},
		{"imbalance_tol huge", "application/json", edit(func(w *cluster.SubtreeWire) { w.Options.ImbalanceTol = 9 }), 400},
		{"unknown field", "application/json", `{"k":4,"bogus":1}`, 400},
		{"malformed json", "application/json", `{"k":`, 400},
		{"octet-stream", "application/octet-stream", "TMSH", http.StatusUnsupportedMediaType},
	}
	for _, c := range cases {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			_, err := decodeRequest(kindSubtree, c.ctype, nil, []byte(c.body))
			var rerr *requestError
			if !errors.As(err, &rerr) || rerr.code != c.code {
				t.Fatalf("decode = %v, want a %d requestError", err, c.code)
			}
		})
	}
	if _, err := decodeRequest(kindSubtree, "application/json", nil, []byte(subtreeBody(t, maxK-4, 4))); err != nil {
		t.Fatalf("the last in-range part block was rejected: %v", err)
	}
}

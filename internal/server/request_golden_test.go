package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tempart/internal/cluster"
	"tempart/internal/mesh"
	"tempart/internal/temporal"
)

// requestKeyCase is one row of testdata/request_keys.json: a request as it
// arrives on the wire, its content address, and (for the kinds an async
// submission journals) the request JSON the job journal records.
type requestKeyCase struct {
	Name        string          `json:"name"`
	Kind        string          `json:"kind"`
	ContentType string          `json:"content_type"`
	Query       string          `json:"query,omitempty"`
	Key         string          `json:"key"`
	Journal     json.RawMessage `json:"journal,omitempty"`
}

// TestRequestKeysGolden pins what the request codec derives from a request:
// the cache key (also the durable-store address of the result, so a change
// orphans every stored payload) and the journal record's request JSON (what
// a restarted daemon replays). Both must survive refactors of the decode
// path byte for byte; regenerate with -update only for a deliberate format
// change.
func TestRequestKeysGolden(t *testing.T) {
	var tmsh bytes.Buffer
	if err := mesh.Strip([]temporal.Level{0, 1, 2, 1, 0}).Encode(&tmsh); err != nil {
		t.Fatal(err)
	}
	subtree := func(ref cluster.MeshRef) string {
		raw, err := json.Marshal(cluster.SubtreeWire{
			Mesh:      ref,
			Strategy:  "mc_tl",
			Options:   cluster.WireOptions{Seed: 5, ImbalanceTol: 1.1, CoarsenTo: 64, InitTrials: 4, RefinePasses: 3},
			FirstPart: 4,
			K:         4,
			Seed:      -77,
			Vertices:  cluster.PackInt32s([]int32{0, 1, 2, 3, 5, 8}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	const jsonType = "application/json"
	cases := []struct {
		name, kind, ctype, query, body string
	}{
		{"partition/generator", kindPartition, jsonType, "",
			`{"mesh":"CYLINDER","scale":0.01,"k":16,"strategy":"mc_tl","options":{"seed":7,"parallelism":2}}`},
		{"partition/generator-evaluate", kindPartition, jsonType, "",
			`{"mesh":"CUBE","scale":0.02,"k":8,"strategy":"SC_OC","options":{"method":"kway","trials":2,"imbalance_tol":1.2},"timeout_ms":500,` +
				`"evaluate":{"procs":2,"workers":4,"scheduler":"cpf","comm_latency":3,"seed":9,"iterations":2}}`},
		{"partition/upload", kindPartition, "application/octet-stream",
			"k=2&strategy=sc_oc&seed=3&trials=2&tol=1.1&eval_procs=2&eval_iterations=2", tmsh.String()},
		{"repartition/parent-hash", kindRepartition, jsonType, "",
			`{"mesh":"CUBE","scale":0.01,"k":4,"strategy":"MC_TL","options":{"seed":2},` +
				`"parent_hash":"` + strings.Repeat("ab", 32) + `","mode":"refine","migration_penalty":0.5}`},
		{"repartition/inline-parent", kindRepartition, jsonType, "",
			`{"mesh":"CUBE","scale":0.01,"k":2,"strategy":"UNIT","parent":[0,1,1,0],"mode":"diffuse",` +
				`"evaluate":{"procs":2}}`},
		{"repartition/upload", kindRepartition, "application/octet-stream",
			"k=2&strategy=MC_TL&parent_hash=" + strings.Repeat("cd", 32) + "&migration_penalty=-0.5", tmsh.String()},
		{"subtree/generator", kindSubtree, jsonType, "", subtree(cluster.MeshRef{Gen: "CYLINDER", Scale: 0.01})},
		{"subtree/upload", kindSubtree, jsonType, "", subtree(cluster.MeshRef{TMSH: tmsh.Bytes()})},
	}

	var got []requestKeyCase
	for _, c := range cases {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		req, err := decodeRequest(c.kind, c.ctype, q, []byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		key := req.key()
		row := requestKeyCase{Name: c.name, Kind: c.kind, ContentType: c.ctype, Query: c.query, Key: hex.EncodeToString(key[:])}
		if c.kind != kindSubtree {
			if row.Journal, err = json.Marshal(req); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		got = append(got, row)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	path := filepath.Join("testdata", "request_keys.json")
	if *updateGolden {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("request keys or journal JSON drifted from %s.\n--- got ---\n%s", path, out)
	}
}

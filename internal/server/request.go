package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"mime"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"tempart/internal/cluster"
	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/store"
)

// Request limits. They bound what a single request can make the daemon
// allocate or compute, mirroring the hardened mesh.Decode limits.
const (
	maxK           = 1 << 14
	maxTrials      = 64
	maxInitTrials  = 256
	maxPasses      = 256
	maxScale       = 2.0
	maxParallelism = 256
)

// OptionsSpec is the wire form of partition.Options. Zero values mean
// "server default", exactly as in the library.
type OptionsSpec struct {
	Seed         int64   `json:"seed,omitempty"`
	ImbalanceTol float64 `json:"imbalance_tol,omitempty"`
	CoarsenTo    int     `json:"coarsen_to,omitempty"`
	InitTrials   int     `json:"init_trials,omitempty"`
	RefinePasses int     `json:"refine_passes,omitempty"`
	Method       string  `json:"method,omitempty"` // "rb" (default) or "kway"
	Trials       int     `json:"trials,omitempty"`
	// Parallelism asks for intra-request worker goroutines; the server
	// clamps it to its -parallel cap. 0 means "use the server cap". It never
	// changes the computed partition, only how fast it arrives.
	Parallelism int `json:"parallelism,omitempty"`
}

// validate applies the option limits and canonicalizes the method, so an
// omitted method and an explicit "rb" share a cache key.
func (o *OptionsSpec) validate() error {
	switch o.Method {
	case "", "rb":
		o.Method = "rb"
	case "kway":
	default:
		return badRequest("unknown method %q (want rb or kway)", o.Method)
	}
	if o.Trials < 0 || o.Trials > maxTrials {
		return badRequest("trials = %d out of range [0, %d]", o.Trials, maxTrials)
	}
	if o.InitTrials < 0 || o.InitTrials > maxInitTrials {
		return badRequest("init_trials = %d out of range [0, %d]", o.InitTrials, maxInitTrials)
	}
	if o.RefinePasses < 0 || o.RefinePasses > maxPasses {
		return badRequest("refine_passes = %d out of range [0, %d]", o.RefinePasses, maxPasses)
	}
	if o.CoarsenTo < 0 || o.CoarsenTo > 1<<30 {
		return badRequest("coarsen_to = %d out of range", o.CoarsenTo)
	}
	if o.Parallelism < 0 || o.Parallelism > maxParallelism {
		return badRequest("parallelism = %d out of range [0, %d]", o.Parallelism, maxParallelism)
	}
	if o.ImbalanceTol != 0 && (o.ImbalanceTol < 1 || o.ImbalanceTol > 4 || math.IsNaN(o.ImbalanceTol)) {
		return badRequest("imbalance_tol = %v out of range [1, 4]", o.ImbalanceTol)
	}
	return nil
}

// meshRef is a request's mesh identity: a named generator at a scale, or an
// uploaded TMSH mesh addressed by the SHA-256 of its bytes. An upload keeps
// its bytes so a durable daemon can persist the mesh (and replay jobs over
// it after a restart) and a coordinator can ship it to its peers.
type meshRef struct {
	// Name names a generator ("CYLINDER", "CUBE", "PPRIME_NOZZLE"); empty
	// for an upload.
	Name  string  `json:"mesh,omitempty"`
	Scale float64 `json:"scale,omitempty"`

	uploaded *mesh.Mesh
	raw      []byte
	digest   [32]byte
}

// generatorNames lists the meshes servable by name, in /v1/meshes order.
var generatorNames = []string{"CYLINDER", "CUBE", "PPRIME_NOZZLE"}

// uploadedMesh decodes a TMSH upload into its mesh identity.
func uploadedMesh(raw []byte) (meshRef, error) {
	m, err := mesh.Decode(bytes.NewReader(raw))
	if err != nil {
		return meshRef{}, badRequest("invalid TMSH mesh: %v", err)
	}
	return meshRef{uploaded: m, raw: raw, digest: sha256.Sum256(raw)}, nil
}

// meshFromWire is the identity a subtree RPC carries (see wire).
func meshFromWire(w cluster.MeshRef) (meshRef, error) {
	if len(w.TMSH) > 0 {
		return uploadedMesh(w.TMSH)
	}
	return meshRef{Name: w.Gen, Scale: w.Scale}, nil
}

// wire is the identity as a subtree RPC carries it to a peer.
func (m *meshRef) wire() cluster.MeshRef {
	if m.uploaded != nil {
		return cluster.MeshRef{TMSH: m.raw}
	}
	return cluster.MeshRef{Gen: m.Name, Scale: m.Scale}
}

// validate checks a generator identity; an upload was checked when decoded.
func (m *meshRef) validate() error {
	if m.uploaded != nil {
		return nil
	}
	if !slices.Contains(generatorNames, m.Name) {
		return badRequest("unknown mesh %q (want one of %s, or an octet-stream TMSH upload)",
			m.Name, strings.Join(generatorNames, ", "))
	}
	if !(m.Scale > 0) || m.Scale > maxScale || math.IsNaN(m.Scale) {
		return badRequest("scale %v out of range (0, %g]", m.Scale, maxScale)
	}
	return nil
}

// digestHex addresses an upload in the store's mesh namespace; "" for a
// generator.
func (m *meshRef) digestHex() string {
	if m.uploaded == nil {
		return ""
	}
	return hex.EncodeToString(m.digest[:])
}

// id is the stable mesh identity keying the evaluator's graph cache. Stable
// ids are what let a repartition reuse the task graph its parent's partition
// built, although each job materialises the mesh afresh.
func (m *meshRef) id() string {
	if m.uploaded != nil {
		return "tmsh:" + m.digestHex()
	}
	return fmt.Sprintf("gen:%s:%g", m.Name, m.Scale)
}

// meshPuts is the store write that persists an uploaded mesh, with its
// provenance; none for a generator.
func (s *Server) meshPuts(m *meshRef) []store.Put {
	if m.uploaded == nil {
		return nil
	}
	man := obs.NewManifest("tempartd")
	man.Node = s.cfg.NodeID
	man.Inputs["kind"] = "mesh-upload"
	man.Inputs["cells"] = m.uploaded.NumCells()
	man.Finish(nil)
	return []store.Put{{NS: store.NSMesh, Key: m.digestHex(), Data: m.raw, Manifest: man}}
}

// PartitionRequest is a fully decoded, validated partition job description.
type PartitionRequest struct {
	meshRef
	K        int         `json:"k"`
	Strategy string      `json:"strategy"`
	Options  OptionsSpec `json:"options"`
	// TimeoutMS caps the job's execution time; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Evaluate, when present, additionally scores the computed assignment
	// through the evaluation pipeline (task graph + FLUSIM) and attaches an
	// EvalResult block to the response. On octet-stream uploads it arrives
	// as eval_* query parameters.
	Evaluate *EvalSpec `json:"evaluate,omitempty"`

	strat partition.Strategy
	// debugTrace marks a ?debug=trace request: the job runs privately with a
	// span recorder and its response (which embeds a debug block) is neither
	// cached nor shared via singleflight.
	debugTrace bool
	// requestID is the X-Request-Id of the exchange that created the job; a
	// cluster member propagates it on every peer hop made on the job's
	// behalf (forward, subtree fan-out, cache probe). For singleflighted
	// jobs it is the creating exchange's id.
	requestID string
	// trace is the request's distributed-trace context: inherited from an
	// incoming X-Tempartd-Trace header (peer hops), synthesized for
	// ?debug=trace requests, or head-sampled by the flight recorder. It rides
	// every peer hop next to requestID.
	trace obs.TraceContext
	// sampled marks a job that runs with a span recorder but keeps its
	// canonical cacheable payload (no debug block): the recorded tree feeds
	// the flight recorder, never the response bytes.
	sampled bool
}

// requestError carries the HTTP status a decode/validation failure maps to.
type requestError struct {
	code int
	msg  string
}

func (e *requestError) Error() string { return e.msg }

func errorf(code int, format string, args ...any) *requestError {
	return &requestError{code: code, msg: fmt.Sprintf(format, args...)}
}

func badRequest(format string, args ...any) *requestError {
	return errorf(http.StatusBadRequest, format, args...)
}

// decodeRequest is the one request codec: it parses a job request of the
// given kind and validates it. Two content types are accepted:
//
//   - application/json: the request object, decoded strictly (unknown
//     fields and trailing data are errors). `curl -d`'s
//     x-www-form-urlencoded and a missing type are read as JSON too.
//   - application/octet-stream (or application/x-tmsh), partition and
//     repartition only: the body is a raw binary TMSH mesh and the other
//     fields arrive as query parameters — k, strategy, seed, tol,
//     coarsen_to, init_trials, refine_passes, method, trials, parallel and
//     timeout_ms; eval_procs, eval_workers, eval_scheduler,
//     eval_comm_latency, eval_seed and eval_iterations for an evaluate spec;
//     parent_hash, mode and migration_penalty on a repartition.
func decodeRequest(kind, contentType string, q url.Values, body []byte) (jobRequest, error) {
	req, err := parseRequest(kind, contentType, q, body)
	if err == nil {
		err = req.validate()
	}
	if err != nil {
		return nil, err
	}
	return req, nil
}

// parseRequest is decodeRequest without the validation; journal replay
// attaches the stored mesh of an upload before it validates.
func parseRequest(kind, contentType string, q url.Values, body []byte) (jobRequest, error) {
	var req jobRequest
	switch kind {
	case kindPartition:
		req = &PartitionRequest{}
	case kindRepartition:
		req = &RepartitionRequest{}
	case kindSubtree:
		req = &subtreeRequest{}
	default:
		return nil, fmt.Errorf("unknown request kind %q", kind)
	}
	mt := contentType
	if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
		mt = parsed
	}
	switch mt {
	case "application/octet-stream", "application/x-tmsh":
		qr := &query{Values: q}
		req.fromQuery(qr)
		if qr.err != nil {
			return nil, qr.err
		}
		m, err := uploadedMesh(body)
		if err != nil {
			return nil, err
		}
		req.base().meshRef = m
	case "application/json", "application/x-www-form-urlencoded", "":
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(req); err != nil {
			return nil, badRequest("invalid request JSON: %v", err)
		}
		if dec.More() {
			return nil, badRequest("trailing data after request JSON")
		}
	default:
		return nil, errorf(http.StatusUnsupportedMediaType,
			"unsupported content type %q (want application/json or application/octet-stream)", contentType)
	}
	return req, nil
}

// query reads typed URL query parameters. The first malformed value sticks
// in err; found counts the parameters present.
type query struct {
	url.Values
	err   error
	found int
}

// read parses the named parameter into dst (*int, *int64, *float64 or
// *string) when it is present.
func (q *query) read(name string, dst any) {
	s := q.Get(name)
	if s == "" || q.err != nil {
		return
	}
	q.found++
	var err error
	switch d := dst.(type) {
	case *int:
		*d, err = strconv.Atoi(s)
	case *int64:
		*d, err = strconv.ParseInt(s, 10, 64)
	case *float64:
		*d, err = strconv.ParseFloat(s, 64)
	case *string:
		*d = s
	}
	if err != nil {
		q.err = badRequest("query %s: %v", name, err)
	}
}

// fromQuery implements jobRequest: the upload form's query parameters.
func (r *PartitionRequest) fromQuery(q *query) {
	o := &r.Options
	for _, p := range []struct {
		name string
		dst  any
	}{
		{"k", &r.K}, {"strategy", &r.Strategy}, {"seed", &o.Seed}, {"tol", &o.ImbalanceTol},
		{"coarsen_to", &o.CoarsenTo}, {"init_trials", &o.InitTrials}, {"refine_passes", &o.RefinePasses},
		{"method", &o.Method}, {"trials", &o.Trials}, {"parallel", &o.Parallelism}, {"timeout_ms", &r.TimeoutMS},
	} {
		q.read(p.name, p.dst)
	}
	r.Evaluate = q.evalSpec()
}

func (r *PartitionRequest) kind() string { return kindPartition }

// validate applies limits and resolves enums. It mutates the request into
// canonical form (strategy label upper-cased, method normalized) so the
// cache key is insensitive to equivalent spellings.
func (r *PartitionRequest) validate() error {
	if err := r.meshRef.validate(); err != nil {
		return err
	}
	if r.K < 1 || r.K > maxK {
		return badRequest("k = %d out of range [1, %d]", r.K, maxK)
	}
	strat, err := partition.ParseStrategy(r.Strategy)
	if err != nil {
		return badRequest("%v", err)
	}
	r.strat = strat
	r.Strategy = strat.String()
	if err := r.Options.validate(); err != nil {
		return err
	}
	if r.TimeoutMS < 0 {
		return badRequest("timeout_ms = %d is negative", r.TimeoutMS)
	}
	if r.Evaluate != nil {
		return r.Evaluate.validate()
	}
	return nil
}

// partitionOptions converts the wire options to library options, with the
// parallelism resolved against the server cap.
func (s *Server) partitionOptions(o OptionsSpec) partition.Options {
	opt := partition.Options{
		Seed:         o.Seed,
		ImbalanceTol: o.ImbalanceTol,
		CoarsenTo:    o.CoarsenTo,
		InitTrials:   o.InitTrials,
		RefinePasses: o.RefinePasses,
		Trials:       o.Trials,
		Parallelism:  s.cfg.clampParallelism(o.Parallelism),
	}
	if o.Method == "kway" {
		opt.Method = partition.DirectKWay
	}
	return opt
}

// key computes the request's content address: SHA-256 over the mesh identity
// (generator name+scale, or the digest of the uploaded bytes) and every
// option that influences the result. The timeout is deliberately excluded —
// it changes whether a result arrives, never what it is. Parallelism is
// excluded for the same reason: the fan-out seeding scheme makes the
// partition bit-identical at every worker count, so requests differing only
// in parallelism share one cache entry and one in-flight job.
func (r *PartitionRequest) key() cacheKey {
	h := sha256.New()
	h.Write([]byte("tempartd/v1\x00"))
	if r.uploaded != nil {
		h.Write([]byte("tmsh\x00"))
		h.Write(r.digest[:])
	} else {
		fmt.Fprintf(h, "gen\x00%s\x00", r.Name)
		var sb [8]byte
		binary.LittleEndian.PutUint64(sb[:], math.Float64bits(r.Scale))
		h.Write(sb[:])
	}
	// Canonicalize defaults so an explicit default hashes like an omitted
	// field. CoarsenTo's default depends on the constraint count, so only
	// its zero marker is canonical.
	o := r.Options
	if o.ImbalanceTol <= 1 {
		o.ImbalanceTol = partition.DefaultImbalanceTol
	}
	if o.InitTrials <= 0 {
		o.InitTrials = partition.DefaultInitTrials
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = partition.DefaultRefinePasses
	}
	if o.Trials <= 1 {
		o.Trials = 1
	}
	fmt.Fprintf(h, "k=%d strat=%s seed=%d tol=%x coarsen=%d init=%d passes=%d method=%s trials=%d",
		r.K, r.Strategy, o.Seed, math.Float64bits(o.ImbalanceTol), o.CoarsenTo,
		o.InitTrials, o.RefinePasses, o.Method, o.Trials)
	// The evaluation spec changes the response body (an extra result block),
	// so it is part of the address — but only when present, keeping the keys
	// of plain partition requests stable across daemon versions.
	if r.Evaluate != nil {
		r.Evaluate.hashInto(h)
	}
	var key cacheKey
	h.Sum(key[:0])
	return key
}

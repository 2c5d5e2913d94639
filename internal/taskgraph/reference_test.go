package taskgraph

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/temporal"
)

// referenceBuildIterations is Algorithm 1 stated object by object, the way
// the package comment's data flow reads: every task collects the last
// writers of each face and cell it reads or rewrites. BuildIterations works
// on whole groups instead and must emit the same DAG byte for byte.
func referenceBuildIterations(m *mesh.Mesh, part []int32, numDomains, iterations int, opt Options) *TaskGraph {
	opt = opt.withDefaults()
	scheme := m.Scheme()
	type bucket struct {
		domain   int32
		level    temporal.Level
		external bool
	}
	cellExternal := make([]bool, m.NumCells())
	for _, f := range m.Faces {
		if !f.IsBoundary() && part[f.C0] != part[f.C1] {
			cellExternal[f.C0] = true
			cellExternal[f.C1] = true
		}
	}
	cells := map[bucket][]int32{}
	for c := int32(0); c < int32(m.NumCells()); c++ {
		b := bucket{part[c], m.Level[c], cellExternal[c]}
		cells[b] = append(cells[b], c)
	}
	faces := map[bucket][]int32{}
	for i, f := range m.Faces {
		b := bucket{part[f.C0], faceLevel(m, f), !f.IsBoundary() && part[f.C0] != part[f.C1]}
		faces[b] = append(faces[b], int32(i))
	}
	lastCell := make([]int32, m.NumCells())
	lastFace := make([]int32, m.NumFaces())
	for i := range lastCell {
		lastCell[i] = -1
	}
	for i := range lastFace {
		lastFace[i] = -1
	}

	tg := &TaskGraph{NumDomains: numDomains, Scheme: scheme, PredStart: []int32{0}}
	for iter := 0; iter < iterations; iter++ {
		for sub := 0; sub < scheme.NumSubiterations(); sub++ {
			for _, tau := range scheme.ActiveLevels(sub) {
				for _, kind := range [2]Kind{FaceKind, CellKind} {
					for d := int32(0); d < int32(numDomains); d++ {
						for _, ext := range [2]bool{true, false} {
							b := bucket{d, tau, ext}
							objs, unitCost := faces[b], opt.FaceCost
							if kind == CellKind {
								objs, unitCost = cells[b], opt.CellCost
							}
							if len(objs) == 0 {
								continue
							}
							id := int32(len(tg.Tasks))
							writers := map[int32]bool{}
							for _, o := range objs {
								if kind == FaceKind {
									face := m.Faces[o]
									writers[lastCell[face.C0]] = true
									if !face.IsBoundary() {
										writers[lastCell[face.C1]] = true
									}
									writers[lastFace[o]] = true
								} else {
									for _, f := range m.CellFaces(o) {
										writers[lastFace[f]] = true
									}
									writers[lastCell[o]] = true
								}
							}
							for _, o := range objs {
								if kind == FaceKind {
									lastFace[o] = id
								} else {
									lastCell[o] = id
								}
							}
							delete(writers, -1)
							var preds []int32
							for w := range writers {
								preds = append(preds, w)
							}
							slices.Sort(preds)
							tg.Preds = append(tg.Preds, preds...)
							tg.PredStart = append(tg.PredStart, int32(len(tg.Preds)))
							tg.Tasks = append(tg.Tasks, Task{
								ID: id, Iter: int32(iter), Sub: int32(sub), Tau: tau, Kind: kind,
								Domain: d, External: ext, NumObjects: int32(len(objs)),
								Cost: int64(unitCost) * int64(len(objs)),
							})
							if opt.RecordObjects {
								tg.Objects = append(tg.Objects, objs)
							}
						}
					}
				}
			}
		}
	}
	return tg
}

// faceLevel is the temporal level of a face: the finer (minimum) level of
// its adjacent cells, or the cell's own level for boundary faces.
func faceLevel(m *mesh.Mesh, f mesh.Face) temporal.Level {
	l := m.Level[f.C0]
	if !f.IsBoundary() && m.Level[f.C1] < l {
		l = m.Level[f.C1]
	}
	return l
}

// buildPart returns a representative decomposition for a test mesh.
func buildPart(t *testing.T, m *mesh.Mesh, domains int) []int32 {
	t.Helper()
	res, err := partition.PartitionMesh(context.Background(), m, domains, partition.MCTL,
		partition.Options{Seed: 1})
	if err != nil {
		t.Fatalf("partition %s: %v", m.Name, err)
	}
	return res.Part
}

func graphsIdentical(t *testing.T, want, got *TaskGraph, label string) {
	t.Helper()
	if len(want.Tasks) != len(got.Tasks) {
		t.Fatalf("%s: %d tasks, want %d", label, len(got.Tasks), len(want.Tasks))
	}
	for i := range want.Tasks {
		if want.Tasks[i] != got.Tasks[i] {
			t.Fatalf("%s: task %d = %+v, want %+v", label, i, got.Tasks[i], want.Tasks[i])
		}
	}
	if !slices.Equal(want.PredStart, got.PredStart) {
		t.Fatalf("%s: PredStart differs: got %v, want %v", label, got.PredStart, want.PredStart)
	}
	if !slices.Equal(want.Preds, got.Preds) {
		t.Fatalf("%s: Preds differ: got %v, want %v", label, got.Preds, want.Preds)
	}
	if len(want.Objects) != len(got.Objects) {
		t.Fatalf("%s: %d object lists, want %d", label, len(got.Objects), len(want.Objects))
	}
	for i := range want.Objects {
		if !slices.Equal(want.Objects[i], got.Objects[i]) {
			t.Fatalf("%s: Objects[%d] = %v, want %v", label, i, got.Objects[i], want.Objects[i])
		}
	}
}

// TestBuildParallelByteIdentical pins the determinism contract: the DAG
// (tasks, PredStart, Preds, Objects) equals the per-object reference on every
// generator mesh family, whatever Options.Parallelism says.
func TestBuildParallelByteIdentical(t *testing.T) {
	meshes := []*mesh.Mesh{
		mesh.Cylinder(0.002),
		mesh.Cube(0.002),
		mesh.Nozzle(0.002),
	}
	for _, m := range meshes {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			part := buildPart(t, m, 12)
			want := referenceBuildIterations(m, part, 12, 2, Options{RecordObjects: true})
			for _, par := range []int{1, 2, 8} {
				got, err := BuildIterations(m, part, 12, 2,
					Options{RecordObjects: true, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
				graphsIdentical(t, want, got, m.Name)
			}
		})
	}
}

// TestBuildDefaultParallelismMatchesSerial covers the zero Options (plus a
// cost model) on one iteration without object lists against the reference.
func TestBuildDefaultParallelismMatchesSerial(t *testing.T) {
	m := mesh.Cylinder(0.002)
	part := buildPart(t, m, 8)
	want := referenceBuildIterations(m, part, 8, 1, Options{FaceCost: 3, CellCost: 5})
	got, err := Build(m, part, 8, Options{FaceCost: 3, CellCost: 5})
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, want, got, "default options")
}

// fuzzMeshes are the generator meshes FuzzBuildMatchesReference draws from,
// small enough that the per-object reference stays fast.
var fuzzMeshes = []*mesh.Mesh{
	mesh.Cube(0.001),
	mesh.Cylinder(0.0001),
	mesh.Nozzle(0.00005),
}

// FuzzBuildMatchesReference compares BuildIterations with the per-object
// reference over generator meshes and arbitrary strips, random part vectors
// (one domain, empty domains, more domains than cells, blocky or scattered),
// one to three iterations, with and without object lists.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{}, uint16(1), int64(1), uint8(0), false)
	f.Add(uint8(0), []byte{}, uint16(16), int64(2), uint8(1), true)
	f.Add(uint8(1), []byte{}, uint16(64), int64(3), uint8(2), true)
	f.Add(uint8(2), []byte{}, uint16(999), int64(4), uint8(2), false)
	f.Add(uint8(3), []byte{0, 1, 2, 1, 0, 3, 3, 2}, uint16(3), int64(5), uint8(1), true)
	f.Add(uint8(3), []byte{2}, uint16(5), int64(6), uint8(0), true)

	f.Fuzz(func(t *testing.T, meshSel uint8, levels []byte, kRaw uint16, seed int64, itersRaw uint8, record bool) {
		var m *mesh.Mesh
		if int(meshSel) < len(fuzzMeshes) {
			m = fuzzMeshes[meshSel]
		} else {
			if len(levels) == 0 || len(levels) > 64 {
				t.Skip()
			}
			lv := make([]temporal.Level, len(levels))
			for i, b := range levels {
				lv[i] = temporal.Level(b % 5) // 16 subiterations at most
			}
			m = mesh.Strip(lv)
		}
		k := 1 + int(kRaw%1024)
		rng := rand.New(rand.NewSource(seed))
		used := 1 + rng.Intn(k) // domains [used, k) stay empty
		blocky := rng.Intn(2) == 0
		part := make([]int32, m.NumCells())
		for c := range part {
			if blocky {
				part[c] = int32(c * used / len(part))
			} else {
				part[c] = int32(rng.Intn(used))
			}
		}
		iters := 1 + int(itersRaw%3)
		opt := Options{RecordObjects: record}
		got, err := BuildIterations(m, part, k, iters, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		graphsIdentical(t, referenceBuildIterations(m, part, k, iters, opt), got, m.Name)
	})
}

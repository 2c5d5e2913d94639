package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedDir builds a small committed history and returns the keys written.
func seedDir(t *testing.T, dir string) (meshKey, partKey string) {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	meshKey = commitBlob(t, s, NSMesh, []byte("TMSH seed mesh"))
	partKey = commitBlob(t, s, NSPart, []byte("TPRT seed partition"))
	commitBlob(t, s, NSResult, []byte(`{"cut":42}`))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return meshKey, partKey
}

func flipByte(t *testing.T, path string, offset int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if offset < 0 {
		offset = len(raw) + offset
	}
	raw[offset] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDirCleanChain(t *testing.T) {
	dir := t.TempDir()
	seedDir(t, dir)
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if !rep.OK() || rep.Entries != 3 || rep.VerifiedBlobs != 3 || rep.HeadSeq != 3 {
		t.Fatalf("clean chain report = %s (problems %v)", rep, rep.Problems)
	}
}

func TestVerifyDetectsFlippedByteInLog(t *testing.T) {
	dir := t.TempDir()
	seedDir(t, dir)
	raw, err := os.ReadFile(filepath.Join(dir, provLogName))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the SECOND entry's key field: linkage to entry 3
	// breaks because entry 3's prev no longer matches the recomputed hash.
	lines := strings.SplitAfter(string(raw), "\n")
	flipByte(t, filepath.Join(dir, provLogName), len(lines[0])+len(lines[1])/2)
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.OK() {
		t.Fatalf("flipped log byte not detected: %s", rep)
	}
}

func TestVerifyDetectsFlippedByteInFinalEntry(t *testing.T) {
	// The last entry has no successor to break linkage — only the durable
	// head attestation catches it.
	dir := t.TempDir()
	seedDir(t, dir)
	flipByte(t, filepath.Join(dir, provLogName), -10)
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.OK() {
		t.Fatalf("flipped final-entry byte not detected: %s", rep)
	}
}

func TestVerifyDetectsFlippedByteInBlob(t *testing.T) {
	dir := t.TempDir()
	_, partKey := seedDir(t, dir)
	blobPath := filepath.Join(dir, blobDirName, NSPart, partKey[:2], partKey)
	flipByte(t, blobPath, 3)
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.OK() {
		t.Fatalf("flipped blob byte not detected: %s", rep)
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "do not match recorded digest") {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems lack a digest mismatch: %v", rep.Problems)
	}
}

func TestVerifyDetectsMissingBlob(t *testing.T) {
	dir := t.TempDir()
	meshKey, _ := seedDir(t, dir)
	if err := os.Remove(filepath.Join(dir, blobDirName, NSMesh, meshKey[:2], meshKey)); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.OK() || rep.MissingBlobs != 1 {
		t.Fatalf("missing blob not detected: %s", rep)
	}
}

func TestVerifyDetectsMissingHead(t *testing.T) {
	dir := t.TempDir()
	seedDir(t, dir)
	if err := os.Remove(filepath.Join(dir, provHeadName)); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.OK() {
		t.Fatalf("missing head not detected: %s", rep)
	}
}

func TestVerifyCountsOrphanBlobs(t *testing.T) {
	dir := t.TempDir()
	seedDir(t, dir)
	// A blob written but never committed to the chain (crash between the blob
	// write and the log fsync) is an orphan, not an integrity failure.
	orphan := []byte("orphaned bytes")
	b := &diskBlob{root: filepath.Join(dir, blobDirName)}
	if err := b.Put(NSPart, hexSum(orphan), orphan); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if !rep.OK() || rep.Orphans != 1 {
		t.Fatalf("orphan report = %s (problems %v)", rep, rep.Problems)
	}
}

func TestOpenRejectsCorruptionBelowHead(t *testing.T) {
	// Open must never silently drop committed history: corruption at or below
	// the durable head is a hard error, not a repair.
	dir := t.TempDir()
	seedDir(t, dir)
	flipByte(t, filepath.Join(dir, provLogName), 20)
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open succeeded over a corrupt committed prefix")
	}
}

func TestOpenRepairsTrailingHead(t *testing.T) {
	// Crash window: log fsynced but the head replace never happened. Open must
	// accept the longer chain (its prefix matches the head) and repair the
	// head to the true tip.
	dir := t.TempDir()
	seedDir(t, dir)
	raw, err := os.ReadFile(filepath.Join(dir, provLogName))
	if err != nil {
		t.Fatal(err)
	}
	// Rewind the head to attest only entry 1.
	h, ok := hashAt(raw, 1)
	if !ok {
		t.Fatal("hashAt(1) failed")
	}
	if err := writeHead(dir, headState{Seq: 1, Hash: h}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open with trailing head: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err != nil || !rep.OK() || rep.HeadSeq != 3 {
		t.Fatalf("head not repaired: %v %s", err, rep)
	}
}

func TestMemoryStoreVerifyDetectsBlobTamper(t *testing.T) {
	s := mustOpen(t, Options{})
	data := []byte("memory artifact")
	key := commitBlob(t, s, NSPart, data)
	// Reach into the backend and corrupt the stored bytes.
	mb := s.blob.(*memoryBlob)
	mb.mu.Lock()
	mb.m[blobKey(NSPart, key)][0] ^= 0x01
	mb.mu.Unlock()
	if _, ok := s.Get(NSPart, key); ok {
		t.Fatal("Get returned tampered bytes")
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("tampered memory blob not detected: %s", rep)
	}
	if st := s.Stats(); st.ReadCorrupt == 0 {
		t.Fatalf("ReadCorrupt not counted: %+v", st)
	}
}

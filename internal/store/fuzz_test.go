package store

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// FuzzStoreRoundTrip drives arbitrary artifact bytes through the full durable
// path — encode, persist (disk backend), load, reopen, load again — and
// requires byte-identity plus a clean verification walk at every step.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte("TMSH plain mesh bytes"))
	f.Add([]byte(`{"part":[0,1,2,3],"cut":17}`))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 333))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		key := hexSum(data)
		if err := s.Commit(context.Background(), Commit{Puts: []Put{{NS: NSPart, Key: key, Data: data}}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		got, ok := s.Get(NSPart, key)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("live Get mismatch: ok=%v len=%d want %d", ok, len(got), len(data))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		got2, ok := s2.Get(NSPart, key)
		if !ok || !bytes.Equal(got2, data) {
			t.Fatalf("reopened Get mismatch: ok=%v len=%d want %d", ok, len(got2), len(data))
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		rep, err := VerifyDir(dir)
		if err != nil {
			t.Fatalf("VerifyDir: %v", err)
		}
		if !rep.OK() || rep.VerifiedBlobs != 1 {
			t.Fatalf("verification failed: %s (problems %v)", rep, rep.Problems)
		}
	})
}

// FuzzEntryCodecRoundTrip checks that any entry surviving marshalEntry decodes
// back to the same addressed artifact — the chain's integrity argument rests
// on the line being a faithful, canonical encoding.
func FuzzEntryCodecRoundTrip(f *testing.F) {
	f.Add(uint64(1), "mesh", "ab12", "cd34", int64(9), int64(1700000000000))
	f.Add(uint64(7), "result", "00", "ffff", int64(0), int64(0))
	f.Fuzz(func(t *testing.T, seq uint64, ns, key, dataHash string, size, unixMS int64) {
		if !utf8.ValidString(ns) || !utf8.ValidString(key) || !utf8.ValidString(dataHash) {
			t.Skip() // json.Marshal coerces invalid UTF-8; real keys are hex
		}
		e := Entry{Seq: seq, Prev: genesisHash, NS: ns, Key: key, DataHash: dataHash, Size: size, UnixMS: unixMS}
		line, sum, err := marshalEntry(&e)
		if err != nil {
			t.Fatal(err)
		}
		if len(line) == 0 || line[len(line)-1] != '\n' {
			t.Fatal("marshaled line not newline-terminated")
		}
		var back Entry
		if err := json.Unmarshal(line[:len(line)-1], &back); err != nil {
			t.Fatalf("round-trip unmarshal: %v", err)
		}
		if back.Seq != e.Seq || back.NS != e.NS || back.Key != e.Key || back.DataHash != e.DataHash || back.Size != e.Size {
			t.Fatalf("round trip changed the entry: %+v vs %+v", back, e)
		}
		// Deterministic encoding: re-marshaling must reproduce the exact line
		// (and therefore the exact hash the chain links on).
		line2, sum2, err := marshalEntry(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, line2) || sum != sum2 {
			t.Fatal("re-marshaling an identical entry changed its bytes")
		}
	})
}

package server

import (
	"bytes"
	"fmt"
	"testing"
)

func ck(b byte) cacheKey {
	var k cacheKey
	k[0] = b
	return k
}

func TestCacheHitMiss(t *testing.T) {
	c := newResultCache(1 << 20)
	if _, ok := c.get(ck(1)); ok {
		t.Fatalf("empty cache must miss")
	}
	c.put(ck(1), []byte("alpha"))
	got, ok := c.get(ck(1))
	if !ok || !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("get after put: %q, %v", got, ok)
	}
	if _, ok := c.get(ck(2)); ok {
		t.Fatalf("unrelated key must miss")
	}
	// Same key, new payload: replaced, accounting stays consistent.
	c.put(ck(1), []byte("beta-longer"))
	got, _ = c.get(ck(1))
	if !bytes.Equal(got, []byte("beta-longer")) {
		t.Fatalf("update-in-place: %q", got)
	}
	b, n := c.stats()
	if n != 1 || b != int64(len("beta-longer")) {
		t.Fatalf("stats after update = (%d bytes, %d entries)", b, n)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := newResultCache(100)
	pay := bytes.Repeat([]byte("x"), 40)
	c.put(ck(1), pay)
	c.put(ck(2), pay)
	// Touch 1 so 2 becomes the least recently used.
	if _, ok := c.get(ck(1)); !ok {
		t.Fatal("key 1 vanished")
	}
	c.put(ck(3), pay) // 120 bytes > 100: evict key 2
	if _, ok := c.get(ck(2)); ok {
		t.Fatalf("LRU entry survived eviction")
	}
	for _, k := range []byte{1, 3} {
		if _, ok := c.get(ck(k)); !ok {
			t.Fatalf("key %d wrongly evicted", k)
		}
	}
	b, n := c.stats()
	if n != 2 || b != 80 {
		t.Fatalf("stats = (%d bytes, %d entries), want (80, 2)", b, n)
	}
}

func TestCacheRejectsOversizedPayload(t *testing.T) {
	c := newResultCache(10)
	c.put(ck(1), bytes.Repeat([]byte("x"), 11))
	if _, ok := c.get(ck(1)); ok {
		t.Fatalf("payload larger than the whole budget must not be cached")
	}
	b, n := c.stats()
	if b != 0 || n != 0 {
		t.Fatalf("stats = (%d, %d), want (0, 0)", b, n)
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	// Omitted options and their explicit defaults address the same entry.
	base := &PartitionRequest{meshRef: meshRef{Name: "CUBE", Scale: 0.01}, K: 8, Strategy: "MC_TL"}
	if err := base.validate(); err != nil {
		t.Fatal(err)
	}
	expl := &PartitionRequest{meshRef: meshRef{Name: "CUBE", Scale: 0.01}, K: 8, Strategy: "mc_tl",
		Options: OptionsSpec{ImbalanceTol: 1.05, InitTrials: 8, RefinePasses: 8, Trials: 1, Method: "rb"}}
	if err := expl.validate(); err != nil {
		t.Fatal(err)
	}
	if base.key() != expl.key() {
		t.Fatalf("explicit defaults must hash identically to omitted options")
	}
	// Timeout never changes the result, so it never changes the key.
	to := *base
	to.TimeoutMS = 1234
	if base.key() != to.key() {
		t.Fatalf("timeout_ms must not affect the cache key")
	}
	// Every result-affecting field must change the key.
	variants := []*PartitionRequest{
		{meshRef: meshRef{Name: "CYLINDER", Scale: 0.01}, K: 8, Strategy: "MC_TL"},
		{meshRef: meshRef{Name: "CUBE", Scale: 0.02}, K: 8, Strategy: "MC_TL"},
		{meshRef: meshRef{Name: "CUBE", Scale: 0.01}, K: 16, Strategy: "MC_TL"},
		{meshRef: meshRef{Name: "CUBE", Scale: 0.01}, K: 8, Strategy: "SC_OC"},
		{meshRef: meshRef{Name: "CUBE", Scale: 0.01}, K: 8, Strategy: "MC_TL", Options: OptionsSpec{Seed: 9}},
		{meshRef: meshRef{Name: "CUBE", Scale: 0.01}, K: 8, Strategy: "MC_TL", Options: OptionsSpec{Method: "kway"}},
		{meshRef: meshRef{Name: "CUBE", Scale: 0.01}, K: 8, Strategy: "MC_TL", Options: OptionsSpec{Trials: 4}},
	}
	seen := map[cacheKey]int{base.key(): -1}
	for i, v := range variants {
		if err := v.validate(); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		k := v.key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d: %s", i, prev,
				fmt.Sprintf("%+v vs %+v", v, variants[prev]))
		}
		seen[k] = i
	}
}

package partition

import "testing"

func TestGainBucketsOrdering(t *testing.T) {
	var b gainBuckets
	b.reset(8, 5, lifo)
	b.insert(0, 3)
	b.insert(1, -2)
	b.insert(2, 5)
	b.insert(3, 0)
	if b.len() != 4 {
		t.Fatalf("len = %d, want 4", b.len())
	}
	want := []int32{2, 0, 3, 1} // descending key order
	for _, w := range want {
		v, ok := b.popMax()
		if !ok || v != w {
			t.Fatalf("popMax = %d,%v, want %d", v, ok, w)
		}
	}
	if _, ok := b.popMax(); ok {
		t.Fatal("popMax on empty structure returned a vertex")
	}
}

func TestGainBucketsLIFOWithinBucket(t *testing.T) {
	var b gainBuckets
	b.reset(4, 3, lifo)
	b.insert(0, 2)
	b.insert(1, 2)
	b.insert(2, 2)
	// Most recently inserted first — the classical FM discipline.
	for _, w := range []int32{2, 1, 0} {
		if v, _ := b.popMax(); v != w {
			t.Fatalf("popMax = %d, want %d (LIFO violated)", v, w)
		}
	}
}

// TestGainBucketsFIFOWithinBucket interleaves insert, update and remove and
// checks that each bucket drains in arrival order: a vertex arrives when it
// is inserted or updated into a bucket, and an update that keeps its bucket
// keeps its place.
func TestGainBucketsFIFOWithinBucket(t *testing.T) {
	var b gainBuckets
	b.reset(8, 3, fifo)
	b.insert(0, 2)
	b.insert(1, 1)
	b.insert(2, 2)
	b.update(3, 1) // absent: arrives in bucket 1 after 1
	b.insert(4, 2)
	b.update(1, 2) // leaves bucket 1, arrives in bucket 2 after 4
	b.remove(2)    // from the middle of bucket 2
	b.update(0, 2) // same bucket: keeps its place at the head
	b.insert(5, 1)
	b.update(4, 3) // bucket 2's middle to bucket 3
	b.insert(2, 2) // back into bucket 2, after 1
	b.remove(5)    // bucket 1's tail
	b.insert(6, 1)
	for _, w := range []int32{4, 0, 1, 2, 3, 6} {
		if v, _ := b.popMax(); v != w {
			t.Fatalf("popMax = %d, want %d (FIFO violated)", v, w)
		}
	}
	if b.len() != 0 {
		t.Fatalf("len = %d after draining", b.len())
	}
	// The tails survive draining: refilled buckets keep arrival order.
	b.insert(7, 0)
	b.insert(5, 0)
	for _, w := range []int32{7, 5} {
		if v, _ := b.popMax(); v != w {
			t.Fatalf("popMax after refill = %d, want %d", v, w)
		}
	}
}

func TestGainBucketsUpdateAndRemove(t *testing.T) {
	var b gainBuckets
	b.reset(4, 10, lifo)
	b.insert(0, 1)
	b.insert(1, 2)
	b.update(0, 7) // move to a higher bucket
	if v, _ := b.popMax(); v != 0 {
		t.Fatal("update did not reprioritise")
	}
	// update on an absent vertex inserts it.
	b.update(2, 3)
	if !b.contains(2) {
		t.Fatal("update did not insert absent vertex")
	}
	b.remove(2)
	if b.contains(2) {
		t.Fatal("remove left vertex queued")
	}
	if v, _ := b.popMax(); v != 1 {
		t.Fatal("remaining vertex lost")
	}
	if b.len() != 0 {
		t.Fatalf("len = %d after draining", b.len())
	}
}

func TestGainBucketsClampsExtremeKeys(t *testing.T) {
	var b gainBuckets
	b.reset(4, 2, lifo)
	b.insert(0, 100)  // clamps to +2
	b.insert(1, -100) // clamps to -2
	b.insert(2, 1)
	order := []int32{0, 2, 1}
	for _, w := range order {
		if v, _ := b.popMax(); v != w {
			t.Fatalf("clamped ordering wrong: got %d, want %d", v, w)
		}
	}
}

func TestGainBucketsGrow(t *testing.T) {
	var b gainBuckets
	b.reset(2, 4, lifo)
	b.insert(0, 1)
	b.grow(5)
	b.insert(4, 3)
	if v, _ := b.popMax(); v != 4 {
		t.Fatal("vertex added after grow not found")
	}
	if v, _ := b.popMax(); v != 0 {
		t.Fatal("pre-grow vertex lost")
	}
}

func TestGainBucketsResetReuses(t *testing.T) {
	var b gainBuckets
	b.reset(4, 3, lifo)
	b.insert(0, 1)
	b.insert(1, 2)
	b.reset(3, 2, lifo)
	if b.len() != 0 {
		t.Fatal("reset kept entries")
	}
	b.insert(2, -1)
	if v, _ := b.popMax(); v != 2 {
		t.Fatal("structure unusable after reset")
	}
}

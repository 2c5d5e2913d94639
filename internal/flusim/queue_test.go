package flusim

import (
	"math/rand"
	"slices"
	"testing"
)

// scanQueue is the CriticalPathFirst ready queue the heap replaced: every
// pop scans the list for its first task of highest bottom level and
// swap-removes it.
type scanQueue struct{ tasks []int32 }

func (q *scanQueue) pop(bl []int64) int32 {
	idx := 0
	for i, t := range q.tasks {
		if bl[t] > bl[q.tasks[idx]] {
			idx = i
		}
	}
	t := q.tasks[idx]
	q.tasks[idx] = q.tasks[len(q.tasks)-1]
	q.tasks = q.tasks[:len(q.tasks)-1]
	return t
}

// TestCPFPopMatchesScan drives random push/pop sequences, over bottom
// levels drawn from a few values so that most pops break a tie, through the
// heap and through the scan: every pop must return the same task, and the
// ready lists must stay equal.
func TestCPFPopMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		levels := 1 + rng.Intn(6)
		bl := make([]int64, n)
		for i := range bl {
			bl[i] = int64(rng.Intn(levels))
		}
		at := make([]int32, n)
		var heap readyQueue
		heap.reset(bl, at)
		var scan scanQueue
		// Tasks enter in a random order; each is pushed once.
		order := rng.Perm(n)
		pushed := 0
		popRate := rng.Float64()
		for pushed < n || heap.len() > 0 {
			if heap.len() != len(scan.tasks) {
				t.Fatalf("trial %d: heap holds %d tasks, scan %d", trial, heap.len(), len(scan.tasks))
			}
			if pushed < n && (heap.len() == 0 || rng.Float64() >= popRate) {
				task := int32(order[pushed])
				pushed++
				heap.push(task)
				scan.tasks = append(scan.tasks, task)
				continue
			}
			got, want := heap.pop(CriticalPathFirst, nil), scan.pop(bl)
			if got != want {
				t.Fatalf("trial %d: heap popped task %d (bottom level %d), scan %d (bottom level %d)",
					trial, got, bl[got], want, bl[want])
			}
			if !slices.Equal(heap.tasks, scan.tasks) {
				t.Fatalf("trial %d: ready lists differ after popping %d: %v vs %v", trial, got, heap.tasks, scan.tasks)
			}
		}
	}
}

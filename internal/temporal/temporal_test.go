package temporal

import (
	"testing"
	"testing/quick"
)

func TestNewSchemeRejectsHuge(t *testing.T) {
	if _, err := NewScheme(MaxSupportedLevel + 1); err == nil {
		t.Fatal("NewScheme accepted out-of-range level")
	}
	if _, err := NewScheme(MaxSupportedLevel); err != nil {
		t.Fatalf("NewScheme rejected supported level: %v", err)
	}
}

func TestSchemeBasics(t *testing.T) {
	s, _ := NewScheme(2)
	if s.NumLevels() != 3 {
		t.Errorf("NumLevels = %d, want 3", s.NumLevels())
	}
	if s.NumSubiterations() != 4 {
		t.Errorf("NumSubiterations = %d, want 4", s.NumSubiterations())
	}
}

// TestActivePatternPaperFig4 pins the activation pattern of the paper's
// Figure 4: MaxLevel 2 → 4 subiterations; τ=0 active at all, τ=1 at 0 and 2,
// τ=2 only at 0.
func TestActivePatternPaperFig4(t *testing.T) {
	s, _ := NewScheme(2)
	want := map[int][]bool{ // sub -> active per level 0,1,2
		0: {true, true, true},
		1: {true, false, false},
		2: {true, true, false},
		3: {true, false, false},
	}
	for sub, w := range want {
		for τ := Level(0); τ <= 2; τ++ {
			if got := s.Active(sub, τ); got != w[τ] {
				t.Errorf("Active(%d, %d) = %v, want %v", sub, τ, got, w[τ])
			}
		}
	}
}

func TestActiveBeyondMaxLevelIsFalse(t *testing.T) {
	s, _ := NewScheme(1)
	if s.Active(0, 5) {
		t.Error("level beyond MaxLevel reported active")
	}
}

func TestMaxActiveLevel(t *testing.T) {
	s, _ := NewScheme(3)
	want := []Level{3, 0, 1, 0, 2, 0, 1, 0}
	for sub, w := range want {
		if got := s.MaxActiveLevel(sub); got != w {
			t.Errorf("MaxActiveLevel(%d) = %d, want %d", sub, got, w)
		}
	}
}

func TestActiveLevelsDescending(t *testing.T) {
	s, _ := NewScheme(2)
	got := s.ActiveLevels(0)
	want := []Level{2, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("ActiveLevels(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ActiveLevels(0) = %v, want %v", got, want)
		}
	}
	if g1 := s.ActiveLevels(1); len(g1) != 1 || g1[0] != 0 {
		t.Errorf("ActiveLevels(1) = %v, want [0]", g1)
	}
}

func TestCosts(t *testing.T) {
	s, _ := NewScheme(3)
	for τ, want := range []int32{8, 4, 2, 1} {
		if got := s.Cost(Level(τ)); got != want {
			t.Errorf("Cost(%d) = %d, want %d", τ, got, want)
		}
	}
	// Clamped above MaxLevel.
	if got := s.Cost(9); got != 1 {
		t.Errorf("Cost(9) = %d, want clamp to 1", got)
	}
}

// Property: each level τ is active exactly 2^(MaxLevel-τ) times per
// iteration, with period 2^τ — so the per-iteration cost model is exactly the
// activation count.
func TestActivationCountMatchesCostProperty(t *testing.T) {
	f := func(maxRaw uint8) bool {
		max := Level(maxRaw % 7)
		s, _ := NewScheme(max)
		for τ := Level(0); τ <= max; τ++ {
			count := 0
			for sub := 0; sub < s.NumSubiterations(); sub++ {
				if s.Active(sub, τ) {
					count++
				}
			}
			if count != int(s.Cost(τ)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: summing the active cells of every subiteration equals
// IterationWork for any per-level census.
func TestWorkDecompositionProperty(t *testing.T) {
	f := func(maxRaw uint8, a, b, c, d uint16) bool {
		max := Level(maxRaw%4) + 0
		s, _ := NewScheme(max)
		cells := []int64{int64(a), int64(b), int64(c), int64(d)}[:int(max)+1]
		var sum int64
		for sub := 0; sub < s.NumSubiterations(); sub++ {
			for τ, n := range cells {
				if s.Active(sub, Level(τ)) {
					sum += n
				}
			}
		}
		return sum == s.IterationWork(cells)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Package temporal implements the adaptive time-stepping scheme of the
// FLUSEPA solver: temporal levels, operating costs, and the subiteration
// schedule that determines which levels are active when.
//
// Every cell carries a temporal level τ ∈ [0, MaxLevel]. A cell of level τ
// advances with time step base·2^τ, so an iteration — which brings the whole
// mesh to the same physical time — is divided into 2^MaxLevel subiterations,
// and a level-τ cell is recomputed every 2^τ subiterations. Level τ is
// therefore *active* at subiteration s iff s mod 2^τ == 0, and the per-
// iteration operating cost of a level-τ cell is 2^(MaxLevel−τ).
package temporal

import "fmt"

// Level is a temporal level. Level 0 is the finest (smallest time step, most
// expensive); higher levels halve the update frequency.
type Level uint8

// MaxSupportedLevel bounds the scheme; 2^MaxSupportedLevel subiterations must
// stay comfortably within int range and realistic meshes use ≤ 8 levels (the
// paper's meshes use 3 and 4).
const MaxSupportedLevel = 16

// Scheme describes the temporal integration of a mesh whose highest temporal
// level is MaxLevel (i.e. levels 0..MaxLevel all exist or are permitted).
type Scheme struct {
	MaxLevel Level
}

// NewScheme returns the scheme for the given maximum temporal level.
func NewScheme(max Level) (Scheme, error) {
	if max > MaxSupportedLevel {
		return Scheme{}, fmt.Errorf("temporal: max level %d exceeds supported %d", max, MaxSupportedLevel)
	}
	return Scheme{MaxLevel: max}, nil
}

// NumLevels returns the number of distinct temporal levels (MaxLevel+1).
func (s Scheme) NumLevels() int { return int(s.MaxLevel) + 1 }

// NumSubiterations returns how many subiterations one iteration comprises:
// 2^MaxLevel.
func (s Scheme) NumSubiterations() int { return 1 << s.MaxLevel }

// Active reports whether level τ is computed during subiteration sub
// (0-based within the iteration).
func (s Scheme) Active(sub int, τ Level) bool {
	if τ > s.MaxLevel {
		return false
	}
	return sub&((1<<τ)-1) == 0
}

// MaxActiveLevel returns the highest temporal level active at subiteration
// sub. Subiteration 0 activates every level; subiteration s>0 activates
// levels 0..trailingZeros(s).
func (s Scheme) MaxActiveLevel(sub int) Level {
	if sub == 0 {
		return s.MaxLevel
	}
	tz := Level(trailingZeros(sub))
	if tz > s.MaxLevel {
		return s.MaxLevel
	}
	return tz
}

// ActiveLevels returns the levels computed at subiteration sub, in the
// descending order in which Algorithm 1 traverses them (phases).
func (s Scheme) ActiveLevels(sub int) []Level {
	max := s.MaxActiveLevel(sub)
	out := make([]Level, 0, int(max)+1)
	for τ := int(max); τ >= 0; τ-- {
		out = append(out, Level(τ))
	}
	return out
}

// Cost returns the per-iteration operating cost of a level-τ cell:
// 2^(MaxLevel−τ). This is the weight used by the single-constraint
// operating-cost (SC_OC) partitioning strategy.
func (s Scheme) Cost(τ Level) int32 {
	if τ > s.MaxLevel {
		τ = s.MaxLevel
	}
	return 1 << (s.MaxLevel - τ)
}

// IterationWork returns the total work of a full iteration given per-level
// cell counts: Σ_τ cells[τ]·2^(MaxLevel−τ).
func (s Scheme) IterationWork(cellsPerLevel []int64) int64 {
	var w int64
	for τ, n := range cellsPerLevel {
		w += n * int64(s.Cost(Level(τ)))
	}
	return w
}

func trailingZeros(x int) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

package xrand

//lint:rng xrand owns the only math/rand import; Std is the sanctioned bridge
import "math/rand"

// Std wraps a seeded RNG in a *rand.Rand for APIs that demand one
// (testing/quick, sort.Shuffle-style helpers from other packages).
// The returned value is NOT safe for concurrent use and must not cross
// a goroutine boundary — parallel code pre-splits with SplitRNGs and
// gives each worker its own RNG instead.
//
//lint:deadexport the math/rand bridge rngdiscipline points to; the sketch tests pin testing/quick corpora with it
func Std(seed uint64) *rand.Rand {
	return rand.New(&stdSource{rng: New(seed)})
}

// stdSource adapts RNG to rand.Source.
type stdSource struct{ rng *RNG }

func (s *stdSource) Int63() int64 { return s.rng.Int63() }

func (s *stdSource) Seed(seed int64) { s.rng = New(uint64(seed)) }

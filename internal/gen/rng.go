// Package gen provides the synthetic graph generators used by the
// evaluation harness. The first two (Urand, Kron) mirror the GAP Benchmark
// Suite generators the paper uses for urand27 and kron27; the rest are
// structural analogues for the SuiteSparse graphs in Table 2, constructed
// to match the originals on the axes the paper's analysis cares about:
// diameter, degree skew, and adjacency-gap locality.
package gen

// RNG is a splitmix64 pseudo-random generator: tiny state and excellent
// statistical quality.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with the given value.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly random integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int32n returns a uniformly random int32 in [0, n).
func (r *RNG) Int32n(n int32) int32 {
	return int32(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

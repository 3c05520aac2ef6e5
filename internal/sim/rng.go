package sim

// RNG is a small, fast, deterministic random number generator
// (xorshift128+ with a splitmix64-seeded state). The simulation uses it for
// adaptive-routing tie-breaks and benchmark run-to-run jitter; determinism
// for a given seed is what makes every experiment reproducible, so model
// code must never fall back to math/rand's global source.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed nonzero state even for small seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r to the state NewRNG(seed) starts from. Components that
// hold their generator by value, in arrays with one slot per node or
// switch, seed it in place.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Normal returns a sample from a normal distribution with the given mean
// and standard deviation, using the Box-Muller transform (one branch).
func (r *RNG) Normal(mean, stddev float64) float64 {
	// Marsaglia polar method, deterministic and allocation-free.
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			m := sqrt(-2 * ln(s) / s)
			return mean + stddev*u*m
		}
	}
}

// Jitter returns d scaled by a factor drawn uniformly from
// [1-frac, 1+frac]. It never returns a negative duration.
func (r *RNG) Jitter(d Time, frac float64) Time {
	if frac <= 0 || d == 0 {
		return d
	}
	f := 1 + frac*(2*r.Float64()-1)
	return ScaleF(d, f)
}

// SeedFor derives a substream seed from a base seed and a component path
// (a kind string plus numeric ids, e.g. SeedFor(seed, "fault", dst)). Each
// component owning its own RNG — rather than sharing one engine stream — is
// what makes random draws a function of the component's own history instead
// of global execution order, so a run partitioned across shards draws the
// same numbers as its single-heap twin. The fold is FNV-1a over the path
// followed by a splitmix64 finalizer, so nearby ids land far apart.
func SeedFor(base uint64, kind string, ids ...int) uint64 {
	const (
		fnvOffset uint64 = 14695981039346656037
		fnvPrime  uint64 = 1099511628211
	)
	h := fnvOffset ^ base
	for i := 0; i < len(kind); i++ {
		h ^= uint64(kind[i])
		h *= fnvPrime
	}
	for _, id := range ids {
		v := uint64(int64(id))
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// Minimal local math helpers so the RNG has no dependencies that could
// tempt callers into importing math/rand alongside it.

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func ln(x float64) float64 {
	// ln via atanh series after range reduction x = m * 2^k, m in [0.5, 1).
	if x <= 0 {
		return 0
	}
	k := 0
	for x >= 1 {
		x /= 2
		k++
	}
	for x < 0.5 {
		x *= 2
		k--
	}
	// x in [0.5, 1); ln(x) = 2*atanh((x-1)/(x+1))
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for i := 0; i < 30; i++ {
		sum += term / float64(2*i+1)
		term *= y2
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(k)*ln2
}

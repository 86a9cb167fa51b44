package netsim

import "math/bits"

// stream is a node's private pseudo-random stream: a splitmix64
// generator, one word of state, seeded in O(1) by hashing (seed, node).
// A simulation keeps them in one value slice, so setting up N streams is
// a single allocation and each node draws race-free from its own shard.
type stream struct{ s uint64 }

// mix64 is splitmix64's output finalizer, a bijective avalanche hash.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// newStream seeds node u's stream; distinct (seed, u) pairs start at
// hashed, effectively independent points of the 2^64-periodic sequence.
func newStream(seed int64, u int) stream {
	return stream{s: mix64(mix64(uint64(seed)) + uint64(u))}
}

func (r *stream) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float64 returns a uniform value in [0, 1).
func (r *stream) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n), n > 0, by Lemire's
// multiply-shift with rejection, so it is exactly unbiased.
func (r *stream) intn(n int) int {
	hi, lo := bits.Mul64(r.next(), uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			hi, lo = bits.Mul64(r.next(), uint64(n))
		}
	}
	return int(hi)
}

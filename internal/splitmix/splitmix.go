// Package splitmix is the small lock-free pseudo-random source behind
// retry and redial jitter. The global math/rand source serialises every
// caller on one mutex; jitter is on the propagation hot path and only
// needs decorrelation, not quality, so each instance and each transport
// carries its own seeded state instead.
package splitmix

import "sync/atomic"

// Source is a splitmix64 generator; the zero value is seeded with 0.
type Source struct {
	state atomic.Uint64
}

// Seed resets the generator's state.
func (p *Source) Seed(v uint64) { p.state.Store(v) }

// Int63n returns a value in [0, n). Each call advances the state by the
// splitmix64 increment; concurrent callers interleave harmlessly.
func (p *Source) Int63n(n int64) int64 {
	x := p.state.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>1) % n
}

package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"

	"tiamat/tuple"
)

// Everything the program under test sees is generated here from the
// seed: keys, op mix, holder choice and payload bytes. A payload is a
// pure function of (seed, key), so any returned tuple can be checked
// against what was written without remembering it.

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clientRand returns the PRNG of one load goroutine. math/rand with an
// explicit source is a frozen algorithm: the same seed gives the same
// stream on every Go release.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed)*1000003 + uint64(client)))))
}

// keyBase places the unique keys of a run in [2^40, 2^41), so every key
// of every seed has the same varint width and wire_bytes_per_op does not
// depend on the seed.
func keyBase(seed int64) int64 {
	return 1<<40 + int64(splitmix(uint64(seed))%(1<<39))
}

// fillPayload writes the payload for key into dst.
func fillPayload(dst []byte, seed, key int64) {
	x := splitmix(uint64(seed)) ^ uint64(key)*0xd6e8feb86659fd93
	for i := 0; i < len(dst); i += 8 {
		x = splitmix(x)
		v := x
		for j := i; j < i+8 && j < len(dst); j++ {
			dst[j] = byte(v)
			v >>= 8
		}
	}
}

const (
	smallPayload = 64
	taskPayload  = 1024
)

// gen builds and checks the tuples of one run.
type gen struct {
	seed int64
	// corruptEvery, when positive, flips a byte in every n'th payload
	// written. Only the smoke test sets it, to show the output check
	// catches a wrong tuple.
	corruptEvery int64
	written      atomic.Int64
}

// tupleFor builds (tag, key, payload). scratch must hold size bytes and
// belongs to the caller's goroutine; tuple.Bytes copies it.
func (g *gen) tupleFor(tag string, key int64, scratch []byte) tuple.Tuple {
	fillPayload(scratch, g.seed, key)
	if g.corruptEvery > 0 {
		if g.written.Add(1)%g.corruptEvery == 0 {
			scratch[0] ^= 0xff
		}
	}
	return tuple.T(tuple.String(tag), tuple.Int(key), tuple.Bytes(scratch))
}

func exactTemplate(tag string, key int64) tuple.Template {
	return tuple.Tmpl(tuple.String(tag), tuple.Int(key), tuple.FormalBytes())
}

func formalTemplate(tag string) tuple.Template {
	return tuple.Tmpl(tuple.String(tag), tuple.FormalInt(), tuple.FormalBytes())
}

// check verifies a returned tuple against what was written: the tag, the
// key (when the caller asked for one) and the payload derived from the
// key. It returns the tuple's key.
func (g *gen) check(t tuple.Tuple, tag string, wantKey int64, exact bool, size int, scratch []byte) (int64, error) {
	if t.Arity() != 3 {
		return 0, fmt.Errorf("arity %d, want 3", t.Arity())
	}
	gotTag, err := t.StringAt(0)
	if err != nil || gotTag != tag {
		return 0, fmt.Errorf("tag %q, want %q", gotTag, tag)
	}
	key, err := t.IntAt(1)
	if err != nil {
		return 0, err
	}
	if exact && key != wantKey {
		return key, fmt.Errorf("key %d, want %d", key, wantKey)
	}
	got, err := t.BytesAt(2)
	if err != nil {
		return key, err
	}
	want := scratch[:size]
	fillPayload(want, g.seed, key)
	if !bytes.Equal(got, want) {
		return key, fmt.Errorf("payload of key %d differs from what was written", key)
	}
	return key, nil
}

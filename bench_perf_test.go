// Hot-path throughput benchmarks: the sharded store under parallel load
// versus a single lock, and the pooled wire codec versus the allocating
// one. Ungated diagnostics (`make allocs` runs one by name; perf claims
// are measured by `make perf`). The parallel store benchmarks only
// separate meaningfully at ≥4 cores, single-core runs show the structural
// overhead instead.
package tiamat_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tiamat/clock"
	"tiamat/internal/store"
	"tiamat/space"
	"tiamat/space/naive"
	"tiamat/tuple"
	"tiamat/wire"
)

// parallelStores enumerates the spaces compared by the parallel store
// benchmarks: the single-mutex reference implementation and the sharded
// store at increasing shard counts (shards=1 isolates the cost of the
// sharding machinery itself; higher counts show lock-contention scaling).
func parallelStores() []struct {
	name string
	mk   func() space.Space
} {
	return []struct {
		name string
		mk   func() space.Space
	}{
		{"naive", func() space.Space { return naive.New(clock.Real{}) }},
		{"shards=1", func() space.Space { return store.New(store.WithShards(1)) }},
		{"shards=4", func() space.Space { return store.New(store.WithShards(4)) }},
		{"shards=16", func() space.Space { return store.New(store.WithShards(16)) }},
	}
}

// BenchmarkStoreParallelOutInp measures out-then-take throughput with
// every goroutine working a distinct tag class, the workload sharding is
// designed for: disjoint classes touch disjoint shards and never contend.
func BenchmarkStoreParallelOutInp(b *testing.B) {
	for _, impl := range parallelStores() {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk()
			defer s.Close()
			var gid atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tag := fmt.Sprintf("class-%d", gid.Add(1))
				t := tuple.T(tuple.String(tag), tuple.Int(1))
				p := tuple.Tmpl(tuple.String(tag), tuple.FormalInt())
				for pb.Next() {
					if _, err := s.Out(t, time.Time{}); err != nil {
						b.Error(err)
						return
					}
					if _, ok := s.Inp(p); !ok {
						b.Error("miss")
						return
					}
				}
			})
		})
	}
}

// BenchmarkStoreParallelRd measures read-only throughput over a prefilled
// space: per-goroutine tag classes again, but no mutation beyond the lock.
func BenchmarkStoreParallelRd(b *testing.B) {
	const classes = 32
	for _, impl := range parallelStores() {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk()
			defer s.Close()
			for c := 0; c < classes; c++ {
				tag := fmt.Sprintf("class-%d", c)
				for i := 0; i < 8; i++ {
					if _, err := s.Out(tuple.T(tuple.String(tag), tuple.Int(int64(i))), time.Time{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			var gid atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tag := fmt.Sprintf("class-%d", gid.Add(1)%classes)
				p := tuple.Tmpl(tuple.String(tag), tuple.FormalInt())
				for pb.Next() {
					if _, ok := s.Rdp(p); !ok {
						b.Error("miss")
						return
					}
				}
			})
		})
	}
}

// benchMsg is a representative TResult frame: the message shape the take
// protocol sends for every remote hit.
func benchMsg() *wire.Message {
	return &wire.Message{
		Type: wire.TResult, ID: 7, From: "node-a:7703",
		Found: true, HoldID: 99,
		Tuple: tuple.T(tuple.String("req"), tuple.Int(42), tuple.Bytes(make([]byte, 256))),
	}
}

// BenchmarkWireRoundtrip compares the allocating encode/decode pair with
// the pooled/no-copy pair the transports use.
func BenchmarkWireRoundtrip(b *testing.B) {
	m := benchMsg()
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data := wire.Encode(m)
			if _, err := wire.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := wire.GetBuf()
			buf.B = wire.AppendEncode(buf.B, m)
			if _, err := wire.DecodeNoCopy(buf.B); err != nil {
				b.Fatal(err)
			}
			buf.Release()
		}
	})
}

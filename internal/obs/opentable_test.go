package obs

import (
	"testing"

	"repro/internal/sim"
)

// TestOpenTableMatchesMap drives the table and a Go map through the same
// random puts (some replacing) and takes (some of absent keys) over a
// key space that keeps long probe runs and wraparound busy, and demands
// the same answers and the same size after every step.
func TestOpenTableMatchesMap(t *testing.T) {
	var tab openTable
	ref := map[uint64]sim.Time{}
	x := uint64(88172645463325252)
	for i := 0; i < 300_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := (x%700)<<48 | (x>>32)%5
		if x&(1<<20) == 0 {
			tab.put(key, sim.Time(i))
			ref[key] = sim.Time(i)
		} else {
			got, ok := tab.take(key)
			want, wantOK := ref[key]
			delete(ref, key)
			if ok != wantOK || got != want {
				t.Fatalf("step %d: take %#x = %v, %v; map says %v, %v", i, key, got, ok, want, wantOK)
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: table holds %d, map %d", i, tab.n, len(ref))
		}
	}
}

// openChurn is the span tier's access pattern: 2 000 two-packet messages
// open across 72 sources, each delivery of a first packet opening one
// and each delivery of a last packet closing the oldest.
func openChurn(b *testing.B, put func(uint64, sim.Time), take func(uint64)) {
	const open = 2000
	key := func(i int) uint64 { return uint64(i%72)<<48 | uint64(i/72) }
	for i := 0; i < open; i++ {
		put(key(i), sim.Time(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(key(i+open), sim.Time(i))
		take(key(i))
	}
}

// BenchmarkOpenTable and BenchmarkOpenTableGoMap compare the table with
// the Go map it replaced on that pattern.
func BenchmarkOpenTable(b *testing.B) {
	var t openTable
	openChurn(b, t.put, func(k uint64) { t.take(k) })
}

func BenchmarkOpenTableGoMap(b *testing.B) {
	m := map[uint64]sim.Time{}
	openChurn(b, func(k uint64, s sim.Time) { m[k] = s }, func(k uint64) {
		if _, ok := m[k]; ok {
			delete(m, k)
		}
	})
}

package obs

import (
	"math/bits"

	"repro/internal/sim"
)

// openTable is the span tier's open-message table: message key → the
// InjectTime of the message's first packet. Every message of an observed
// run passes through it once (a put at its first packet, a take at its
// last), so it is an open-addressing table with linear probing over a
// power-of-two slot array kept at most half full, whose take removes by
// shifting the probe run back instead of leaving a tombstone. Over 2 000
// open messages a put and a take cost 20–37 ns where a Go map's insert,
// lookup and delete cost 58–95 (BenchmarkOpenTable against
// BenchmarkOpenTableGoMap, four runs on a shared 2-vCPU Xeon).
type openTable struct {
	slots []openSlot
	shift uint // 64 − log2(len(slots))
	n     int
}

type openSlot struct {
	key   uint64
	start sim.Time
	used  bool
}

// home is key's preferred slot: the top bits of a Fibonacci hash.
func (t *openTable) home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> t.shift) }

// put files start under key, replacing what key held.
func (t *openTable) put(key uint64, start sim.Time) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			*s = openSlot{key: key, start: start, used: true}
			t.n++
			return
		}
		if s.key == key {
			s.start = start
			return
		}
	}
}

// grow doubles the slot array (to 64 at first) and re-files every entry.
func (t *openTable) grow() {
	old := t.slots
	t.slots = make([]openSlot, max(64, 2*len(old)))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	t.n = 0
	for _, s := range old {
		if s.used {
			t.put(s.key, s.start)
		}
	}
}

// take removes key and returns its start, or reports that key is not
// filed.
func (t *openTable) take(key uint64) (sim.Time, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].used && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	if !t.slots[i].used {
		return 0, false
	}
	start := t.slots[i].start
	// Close the hole: an entry further along the run moves into it
	// unless the hole lies before that entry's home on its probe path.
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = openSlot{}
	t.n--
	return start, true
}

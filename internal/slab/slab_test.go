package slab

import "testing"

// chunked is the object count of eight chunks: 64 … 4096, then 4096
// again at the cap.
const chunked = 64 + 128 + 256 + 512 + 1024 + 2048 + 4096 + 4096

func TestChunksHandOutDistinctZeroObjects(t *testing.T) {
	var c Chunks[[16]byte]
	seen := make(map[*[16]byte]bool)
	for i := 0; i < chunked; i++ {
		p := c.New()
		if seen[p] || *p != ([16]byte{}) {
			t.Fatal("New returned a used object")
		}
		seen[p] = true
		p[0] = 1
	}
	if c.next != maxChunk || len(c.buf) != 0 {
		t.Fatalf("next chunk %d, %d left; want %d, 0", c.next, len(c.buf), maxChunk)
	}
}

func TestChunksAllocatePerChunk(t *testing.T) {
	n := testing.AllocsPerRun(4, func() {
		var c Chunks[int]
		for i := 0; i < chunked; i++ {
			c.New()
		}
	})
	if n != 8 {
		t.Fatalf("%v allocations for eight chunks' worth of objects, want 8", n)
	}
}

func TestMakeCapsEachCarving(t *testing.T) {
	var c Chunks[int]
	a := c.Make(3)
	b := c.Make(2)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("len/cap %d/%d and %d/%d, want 3/3 and 2/2", len(a), cap(a), len(b), cap(b))
	}
	_ = append(a, 7)
	if b[0] != 0 {
		t.Fatal("an append to one carving wrote into the next")
	}
	if big := c.Make(5000); len(big) != 5000 || big[4999] != 0 {
		t.Fatal("a carving larger than any chunk must get its own")
	}
}

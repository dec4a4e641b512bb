package cegis

import (
	"hash/fnv"
	"testing"
)

// TestEnumerateOrderIsPinned holds the skeleton enumeration to a recorded
// sequence: for every program size from 1 to 6 under the full vocabulary,
// the number of skeletons yielded and an FNV-64 hash of their opcodes and
// argument lengths in yield order. The enumeration order decides which program is found first and what every later skeleton
// reuses, so a rewrite of enumerate must yield exactly the same sequence.
func TestEnumerateOrderIsPinned(t *testing.T) {
	golden := []struct {
		size      int
		skeletons int
		hash      uint64
	}{
		{1, 1, 0xd85f2e186b45127e},
		{2, 5, 0x538a68b2ccbd285c},
		{3, 24, 0xc8f5b494f3715c6b},
		{4, 124, 0x3875fa6abafc5a65},
		{5, 618, 0x639b9f563b1ccafc},
		{6, 3136, 0x91af3e0e6fbe2371},
	}
	for _, g := range golden {
		s := &Synthesizer{opts: Options{}.withDefaults()}
		h := fnv.New64()
		n := 0
		err := s.enumerate(g.size, nil, func(skel []shape) error {
			n++
			for _, sh := range skel {
				h.Write([]byte{byte(sh.op), byte(sh.argLen)})
			}
			h.Write([]byte{0xff})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != g.skeletons || h.Sum64() != g.hash {
			t.Errorf("size %d: %d skeletons hash %#x, want %d hash %#x",
				g.size, n, h.Sum64(), g.skeletons, g.hash)
		}
	}
}

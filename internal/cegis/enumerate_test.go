package cegis

import (
	"hash/fnv"
	"testing"

	"stringloops/internal/vocab"
)

// walk runs enumerate for one program size under opts and returns the number
// of skeletons yielded and an FNV-64 hash of their opcodes and argument
// lengths in yield order.
func walk(t *testing.T, opts Options, size int) (int, uint64) {
	t.Helper()
	opts = opts.withDefaults()
	s := &Synthesizer{opts: opts, shapes: shapeTable(opts)}
	h := fnv.New64()
	n := 0
	err := s.enumerate(size, nil, func(skel []shape) error {
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
	return n, h.Sum64()
}

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
		n, h := walk(t, Options{}, g.size)
		if n != g.skeletons || h != g.hash {
			t.Errorf("size %d: %d skeletons hash %#x, want %d hash %#x",
				g.size, n, h, g.skeletons, g.hash)
		}
	}
}

// TestEnumerateRestrictedIsPinned holds the walk to recorded sequences under
// restricted vocabularies and set lengths, where whole opcode families are
// missing and many sizes can only be filled by shapes that leave no room for
// the final return (0 skeletons hashes to the FNV offset basis).
func TestEnumerateRestrictedIsPinned(t *testing.T) {
	golden := []struct {
		letters   string
		setLen    int
		size      int
		skeletons int
		hash      uint64
	}{
		{"MCRBPNZXIESVF", 1, 5, 615, 0x68d02313ee9d3beb},
		{"MCRBPNZXIESVF", 1, 6, 3103, 0x5fabb1e016ef6a3a},
		{"MCRBPNZXIESVF", 4, 5, 618, 0x639b9f563b1ccafc},
		{"MCRBPNZXIESVF", 4, 6, 3136, 0x91af3e0e6fbe2371},
		{"MPNIFV", 1, 1, 1, 0xd85f2e186b45127e},
		{"MPNIFV", 1, 2, 2, 0x1f341611ba485562},
		{"MPNIFV", 1, 3, 3, 0x6f8afc7e32284c79},
		{"MPNIFV", 1, 4, 7, 0xa81745213b987ced},
		{"MPNIFV", 1, 5, 14, 0x794b6930031eff8c},
		{"MPNIFV", 1, 6, 27, 0x8a10308d01c64150},
		{"MPNIFV", 4, 1, 1, 0xd85f2e186b45127e},
		{"MPNIFV", 4, 2, 2, 0x1f341611ba485562},
		{"MPNIFV", 4, 3, 3, 0x6f8afc7e32284c79},
		{"MPNIFV", 4, 4, 7, 0xa81745213b987ced},
		{"MPNIFV", 4, 5, 16, 0xbc2f6f141d3881d4},
		{"MPNIFV", 4, 6, 35, 0xe3b591e84c130596},
		{"CRF", 1, 1, 1, 0xd85f2e186b45127e},
		{"CRF", 1, 2, 0, 0xcbf29ce484222325},
		{"CRF", 1, 3, 2, 0xa692ca79fc3adca},
		{"CRF", 1, 4, 0, 0xcbf29ce484222325},
		{"CRF", 1, 5, 4, 0x7254b5880eaeba8b},
		{"CRF", 1, 6, 0, 0xcbf29ce484222325},
		{"CRF", 4, 1, 1, 0xd85f2e186b45127e},
		{"CRF", 4, 2, 0, 0xcbf29ce484222325},
		{"CRF", 4, 3, 2, 0xa692ca79fc3adca},
		{"CRF", 4, 4, 0, 0xcbf29ce484222325},
		{"CRF", 4, 5, 4, 0x7254b5880eaeba8b},
		{"CRF", 4, 6, 0, 0xcbf29ce484222325},
		{"ZXIESF", 1, 1, 1, 0xd85f2e186b45127e},
		{"ZXIESF", 1, 2, 4, 0x3343b896f166201},
		{"ZXIESF", 1, 3, 16, 0xca9da2a0a2d6954b},
		{"ZXIESF", 1, 4, 72, 0x1884b362ea43b49f},
		{"ZXIESF", 1, 5, 296, 0xce4ee2f800a2a1d3},
		{"ZXIESF", 1, 6, 1272, 0x6356d5b598d71c2b},
		{"BPNVF", 1, 1, 1, 0xd85f2e186b45127e},
		{"BPNVF", 1, 2, 1, 0x25c1690c2e7719b0},
		{"BPNVF", 1, 3, 0, 0xcbf29ce484222325},
		{"BPNVF", 1, 4, 3, 0x54ba248856bdd11},
		{"BPNVF", 1, 5, 3, 0x7995aad5eecab3cf},
		{"BPNVF", 1, 6, 0, 0xcbf29ce484222325},
		{"BPNVF", 4, 1, 1, 0xd85f2e186b45127e},
		{"BPNVF", 4, 2, 1, 0x25c1690c2e7719b0},
		{"BPNVF", 4, 3, 0, 0xcbf29ce484222325},
		{"BPNVF", 4, 4, 3, 0x54ba248856bdd11},
		{"BPNVF", 4, 5, 6, 0xb3da57a6788b5e86},
		{"BPNVF", 4, 6, 6, 0xbfcd9ed4a5c65a62},
	}
	for _, g := range golden {
		v, err := vocab.VocabularyOf(g.letters)
		if err != nil {
			t.Fatal(err)
		}
		n, h := walk(t, Options{Vocabulary: v, MaxSetLen: g.setLen}, g.size)
		if n != g.skeletons || h != g.hash {
			t.Errorf("%s set length %d size %d: %d skeletons hash %#x, want %d hash %#x",
				g.letters, g.setLen, g.size, n, h, g.skeletons, g.hash)
		}
	}
}

package keccak

// The pre-rewrite nested-loop implementation, kept VERBATIM (modulo ref-
// prefixed names) as a differential oracle: every trie root, tx hash and
// WAL fixture depends on digests staying bit-identical across the unrolled
// rewrite, so the fast path is pinned against this one over unit vectors,
// boundary sweeps, and fuzzing.

import "encoding/binary"

// refRotc[x][y] is the rho-step rotation offset for lane (x, y).
var refRotc = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

func refRotl(v uint64, n uint) uint64 {
	if n == 0 {
		return v
	}
	return v<<n | v>>(64-n)
}

// refPermute applies the full 24-round Keccak-f[1600] permutation to the
// state. The state is indexed a[x][y] as in the Keccak reference.
func refPermute(a *[5][5]uint64) {
	var c, d [5]uint64
	var b [5][5]uint64
	for round := 0; round < 24; round++ {
		// theta
		for x := 0; x < 5; x++ {
			c[x] = a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ refRotl(c[(x+1)%5], 1)
			for y := 0; y < 5; y++ {
				a[x][y] ^= d[x]
			}
		}
		// rho and pi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y][(2*x+3*y)%5] = refRotl(a[x][y], refRotc[x][y])
			}
		}
		// chi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x][y] = b[x][y] ^ (^b[(x+1)%5][y] & b[(x+2)%5][y])
			}
		}
		// iota
		a[0][0] ^= roundConstants[round]
	}
}

// refDigest is the pre-rewrite sponge implementation.
type refDigest struct {
	state  [5][5]uint64
	buf    []byte // pending input, less than rate bytes
	rate   int    // rate in bytes (136 for 256-bit, 72 for 512-bit)
	size   int    // output size in bytes
	dsbyte byte   // domain-separation/padding byte (0x01 Keccak, 0x06 SHA3)
}

func (d *refDigest) Write(p []byte) (int, error) {
	n := len(p)
	d.buf = append(d.buf, p...)
	for len(d.buf) >= d.rate {
		d.absorb(d.buf[:d.rate])
		d.buf = d.buf[d.rate:]
	}
	return n, nil
}

// absorb XORs one full rate-sized block into the state and permutes.
func (d *refDigest) absorb(block []byte) {
	for i := 0; i < d.rate/8; i++ {
		lane := binary.LittleEndian.Uint64(block[i*8:])
		x, y := i%5, i/5
		d.state[x][y] ^= lane
	}
	refPermute(&d.state)
}

// finalize pads, absorbs the last block and squeezes into out.
func (d *refDigest) finalize(out []byte) {
	dc := *d
	dc.buf = append([]byte{}, d.buf...)
	// Pad: dsbyte, zeros, final 0x80 (multi-rate padding).
	pad := make([]byte, dc.rate-len(dc.buf))
	pad[0] = dc.dsbyte
	pad[len(pad)-1] |= 0x80
	dc.buf = append(dc.buf, pad...)
	dc.absorb(dc.buf[:dc.rate])
	// Squeeze.
	off := 0
	for off < len(out) {
		for i := 0; i < dc.rate/8 && off < len(out); i++ {
			x, y := i%5, i/5
			var lane [8]byte
			binary.LittleEndian.PutUint64(lane[:], dc.state[x][y])
			n := copy(out[off:], lane[:])
			off += n
		}
		if off < len(out) {
			refPermute(&dc.state)
		}
	}
}

// refSum hashes data with the oracle sponge at the given rate/size/dsbyte.
func refSum(data []byte, rate, size int, dsbyte byte) []byte {
	d := refDigest{rate: rate, size: size, dsbyte: dsbyte}
	d.Write(data)
	out := make([]byte, size)
	d.finalize(out)
	return out
}

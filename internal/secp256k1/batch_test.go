package secp256k1

import (
	"math/rand"
	"testing"
)

// TestSqr256MatchesMul256: the specialized squaring must produce the
// identical raw 512-bit product as the generic schoolbook path, before any
// reduction — random limbs plus all-ones/zero boundary patterns.
func TestSqr256MatchesMul256(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(x [4]uint64) {
		var viaMul, viaSqr [8]uint64
		mul256(&viaMul, &x, &x)
		sqr256(&viaSqr, &x)
		if viaMul != viaSqr {
			t.Fatalf("sqr256(%x) = %x, mul256 says %x", x, viaSqr, viaMul)
		}
	}
	for i := 0; i < 2000; i++ {
		check([4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()})
	}
	ones := ^uint64(0)
	specials := []uint64{0, 1, 2, ones, ones - 1, 1 << 63, (1 << 63) - 1}
	for _, a := range specials {
		for _, b := range specials {
			check([4]uint64{a, b, a, b})
			check([4]uint64{a, 0, 0, b})
			check([4]uint64{ones, a, b, ones})
		}
	}
}

// TestVerifyBatch: positional verification across pool sizes, including a
// deliberately wrong signature.
func TestVerifyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 9
	jobs := make([]VerifyJob, n)
	for i := 0; i < n; i++ {
		key, err := PrivateKeyFromScalar(ScalarFromUint64(uint64(2000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		hash := randBytes32(rng)
		sig, err := Sign(key, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = VerifyJob{Pub: &key.PublicKey, Hash: hash, R: sig.R, S: sig.S}
	}
	jobs[4].Hash[0] ^= 0xFF // tampered message
	for _, workers := range []int{1, 4, 16} {
		ok := VerifyBatch(jobs, workers)
		for i := range ok {
			if want := i != 4; ok[i] != want {
				t.Fatalf("workers=%d: job %d verified=%v, want %v", workers, i, ok[i], want)
			}
		}
	}
}

// TestVerifyBatchPinned: the shared-chain RLC path — all jobs carry a
// recovery hint, spanning multiple fold chunks, with tampered members and
// the blame-attribution fallback exercised.
func TestVerifyBatchPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n = 37 // 2 full chunks + a remainder chunk + a singleton case below
	jobs := make([]VerifyJob, n)
	for i := 0; i < n; i++ {
		key, err := PrivateKeyFromScalar(ScalarFromUint64(uint64(3000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		hash := randBytes32(rng)
		sig, err := Sign(key, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = VerifyJob{Pub: &key.PublicKey, Hash: hash, R: sig.R, S: sig.S, V: sig.V + 27}
	}
	// Clean batch: every chunk folds to infinity.
	for _, workers := range []int{1, 4} {
		ok := VerifyBatch(jobs, workers)
		for i := range ok {
			if !ok[i] {
				t.Fatalf("workers=%d: clean pinned job %d rejected", workers, i)
			}
		}
	}
	// Tamper with one member per chunk: the folds fail, the fallback must
	// blame exactly the tampered members.
	bad := map[int]bool{3: true, 20: true, 35: true}
	saved := make([]VerifyJob, n)
	copy(saved, jobs)
	for i := range bad {
		jobs[i].Hash[5] ^= 0x80
	}
	ok := VerifyBatch(jobs, 4)
	for i := range ok {
		if ok[i] == bad[i] {
			t.Fatalf("tampered batch: job %d verified=%v, want %v", i, ok[i], !bad[i])
		}
	}
	copy(jobs, saved)
	// A flipped recovery hint (parity bit of the recid, keeping V in the
	// pinned 27..30 range) must be rejected by the pinned path even though
	// plain ECDSA Verify would accept the same (r, s).
	jobs[7].V = 27 + ((jobs[7].V - 27) ^ 1)
	ok = VerifyBatch(jobs, 2)
	for i := range ok {
		if want := i != 7; ok[i] != want {
			t.Fatalf("flipped-v batch: job %d verified=%v, want %v", i, ok[i], want)
		}
	}
	jobs[7].V = 27 + ((jobs[7].V - 27) ^ 1)
	if !Verify(jobs[7].Pub, jobs[7].Hash[:], jobs[7].R, jobs[7].S) {
		t.Fatal("sanity: plain Verify should accept the signature itself")
	}
	// Mixed batch: pinned and unpinned jobs interleaved, one singleton
	// pinned chunk (n above keeps the last chunk short).
	for i := 0; i < n; i += 3 {
		jobs[i].V = 0
	}
	ok = VerifyBatch(jobs, 4)
	for i := range ok {
		if !ok[i] {
			t.Fatalf("mixed batch: job %d rejected", i)
		}
	}
}

// TestVerifyBatchPinnedStructuralFailures: members that cannot even build
// their fold inputs (nil/off-curve pubkey, zero r/s, out-of-range hint)
// are excluded and reported false without affecting valid members.
func TestVerifyBatchPinnedStructuralFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n = 6
	jobs := make([]VerifyJob, n)
	for i := 0; i < n; i++ {
		key, err := PrivateKeyFromScalar(ScalarFromUint64(uint64(4000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		hash := randBytes32(rng)
		sig, err := Sign(key, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = VerifyJob{Pub: &key.PublicKey, Hash: hash, R: sig.R, S: sig.S, V: sig.V + 27}
	}
	jobs[1].Pub = nil
	jobs[2].R = Scalar{}
	badPub := *jobs[3].Pub
	badPub.Y.Add(&badPub.Y, &badPub.Y) // knock the point off the curve
	jobs[3].Pub = &badPub
	ok := VerifyBatch(jobs, 1)
	want := []bool{true, false, false, false, true, true}
	for i := range ok {
		if ok[i] != want[i] {
			t.Fatalf("job %d verified=%v, want %v", i, ok[i], want[i])
		}
	}
}

func BenchmarkVerifyBatchPinned16(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	jobs := make([]VerifyJob, batchChunk)
	for i := range jobs {
		key, _ := PrivateKeyFromScalar(ScalarFromUint64(uint64(5000 + i)))
		hash := randBytes32(rng)
		sig, _ := Sign(key, hash[:])
		jobs[i] = VerifyJob{Pub: &key.PublicKey, Hash: hash, R: sig.R, S: sig.S, V: sig.V + 27}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok := VerifyBatch(jobs, 1); !ok[0] {
			b.Fatal("batch rejected")
		}
	}
}

func BenchmarkVerifyBatchUnpinned16(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	jobs := make([]VerifyJob, batchChunk)
	for i := range jobs {
		key, _ := PrivateKeyFromScalar(ScalarFromUint64(uint64(6000 + i)))
		hash := randBytes32(rng)
		sig, _ := Sign(key, hash[:])
		jobs[i] = VerifyJob{Pub: &key.PublicKey, Hash: hash, R: sig.R, S: sig.S}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok := VerifyBatch(jobs, 1); !ok[0] {
			b.Fatal("batch rejected")
		}
	}
}

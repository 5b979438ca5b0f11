// Batch signature verification. VerifyBatch is a TRUE shared-chain batch
// verification: verification only needs N yes/no answers, so the N
// equations s_i·R_i = z_i·G + r_i·Q_i are folded into one
// random-linear-combination equation
//
//	Σ (a_i·s_i)·R_i − Σ (a_i·r_i)·Q_i − (Σ a_i·z_i)·G = ∞
//
// checked by a single multi-scalar ladder whose doubling chain is shared
// by every signature in a chunk (and whose scalars are all GLV-halved).
// The nonce points R_i are reconstructed from the signature's recovery id,
// which makes the batch check exactly recovery-equivalent — strictly
// stronger than plain Verify, since a flipped v that plain Verify would
// tolerate breaks the pinned R_i. Random 128-bit coefficients a_i
// (a_0 = 1) make a forged member survive the fold with probability
// 2^-128; on a failed fold the chunk falls back to per-signature checks
// for blame attribution.
package secp256k1

import (
	"crypto/rand"
	"sync"
	"sync/atomic"
)

// VerifyJob is one signature-verification input. V is optional: zero means
// no recovery hint (the job is verified alone with plain ECDSA), while
// 27..30 pins the nonce point's parity/wrap the way ecrecover does and
// makes the job eligible for shared-chain batching; a pinned job verifies
// iff recovering (Hash, R, S, V) yields exactly Pub.
type VerifyJob struct {
	Pub  *PublicKey
	Hash [32]byte
	R, S Scalar
	V    byte
}

// batchChunk is the shared-chain fold width. Bigger chunks amortize the
// doubling chain further but build more runtime tables per failure
// fallback; 16 puts the per-signature cost at ~8 doublings plus the digit
// additions, already within noise of the asymptote.
const batchChunk = 16

// forEachJob runs fn(i) for every i in [0, n) across min(workers, n)
// goroutines pulling indices from a shared atomic cursor. workers <= 1
// (or n <= 1) degrades to a plain loop on the calling goroutine.
func forEachJob(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// noncePoint reconstructs the signature's nonce point R from (r, recid)
// the way ecrecover does: x is r (or r+n when the wrap bit is set), y is
// the square root whose parity matches the parity bit.
func noncePoint(out *affinePoint, r *Scalar, recid byte) bool {
	var x FieldElement
	if recid&2 == 0 {
		rb := r.Bytes32()
		x.SetBytes32(&rb)
	} else if !xPlusN(&x, r) {
		return false
	}
	var y2, y FieldElement
	y2.Square(&x)
	y2.Mul(&y2, &x)
	y2.Add(&y2, &curveB)
	if !y.Sqrt(&y2) {
		return false
	}
	if y.IsOdd() != (recid&1 == 1) {
		y.Negate(&y)
	}
	out.x = x
	out.y = y
	return true
}

// verifyPinned checks one V-pinned job alone: recovery-equivalent
// verification (used for blame attribution when a folded chunk fails, and
// for chunks too small to be worth folding).
func verifyPinned(j *VerifyJob) bool {
	if j.Pub == nil || j.V < 27 || j.V > 30 {
		return false
	}
	pub, err := RecoverPubkey(j.Hash[:], j.R, j.S, j.V-27)
	return err == nil && pub.Equal(j.Pub)
}

// verifyChunk runs the random-linear-combination fold over the pinned jobs
// at idxs, writing per-job results into ok. Jobs that fail structural
// validation (bad pubkey, unreconstructable nonce point) are excluded from
// the fold and marked false; if the fold itself fails — or entropy for the
// coefficients is unavailable — every member is re-checked alone.
func verifyChunk(jobs []VerifyJob, idxs []int, ok []bool) {
	type member struct {
		idx    int
		r, q   affinePoint // nonce point and public key
		ar, aq Scalar      // a·s and −a·r
	}
	members := make([]member, 0, len(idxs))
	var gk Scalar // accumulates −Σ a_i·z_i
	var entropy [batchChunk * 16]byte
	if len(idxs) > 1 {
		if _, err := rand.Read(entropy[:(len(idxs)-1)*16]); err != nil {
			for _, idx := range idxs {
				ok[idx] = verifyPinned(&jobs[idx])
			}
			return
		}
	}
	for mi, idx := range idxs {
		j := &jobs[idx]
		if j.Pub == nil || !j.Pub.IsOnCurve() || j.R.IsZero() || j.S.IsZero() {
			ok[idx] = false
			continue
		}
		var m member
		m.idx = idx
		if !noncePoint(&m.r, &j.R, j.V-27) {
			ok[idx] = false
			continue
		}
		m.q = affinePoint{x: j.Pub.X, y: j.Pub.Y}
		a := ScalarFromUint64(1)
		if mi > 0 {
			// 128-bit random coefficient: soundness 2^-128 per member.
			off := (mi - 1) * 16
			a.n[0] = be64(entropy[off+8 : off+16])
			a.n[1] = be64(entropy[off : off+8])
			if a.IsZero() {
				a.SetUint64(1)
			}
		}
		var z Scalar
		z.SetBytes32(&j.Hash)
		m.ar.Mul(&a, &j.S)
		m.aq.Mul(&a, &j.R)
		m.aq.Negate(&m.aq)
		var az Scalar
		az.Mul(&a, &z)
		az.Negate(&az)
		gk.Add(&gk, &az)
		members = append(members, m)
	}
	if len(members) == 0 {
		return
	}
	scalars := make([]Scalar, 0, 2*len(members))
	points := make([]affinePoint, 0, 2*len(members))
	for i := range members {
		scalars = append(scalars, members[i].ar, members[i].aq)
		points = append(points, members[i].r, members[i].q)
	}
	var sum jacobianPoint
	multiScalarMult(&sum, &gk, scalars, points)
	if sum.isInfinity() {
		for i := range members {
			ok[members[i].idx] = true
		}
		return
	}
	// The fold rejected: at least one member is bad. Re-check each alone so
	// the caller learns which.
	for i := range members {
		ok[members[i].idx] = verifyPinned(&jobs[members[i].idx])
	}
}

// VerifyBatch verifies every job across a pool of workers goroutines
// (workers <= 0 means one). Results are positional: ok[i] reports whether
// jobs[i] verified. Jobs carrying a recovery hint (V in 27..30) are folded
// into shared-chain chunks of batchChunk signatures; unhinted jobs verify
// independently with plain ECDSA, preserving the original semantics.
func VerifyBatch(jobs []VerifyJob, workers int) (ok []bool) {
	ok = make([]bool, len(jobs))
	var singles, pinned []int
	for i := range jobs {
		if jobs[i].V >= 27 && jobs[i].V <= 30 {
			pinned = append(pinned, i)
		} else {
			singles = append(singles, i)
		}
	}
	// Work items: each unhinted job alone, each pinned chunk as a unit.
	type workItem struct {
		single int   // valid when chunk is nil
		chunk  []int // pinned chunk
	}
	items := make([]workItem, 0, len(singles)+len(pinned)/batchChunk+1)
	for _, i := range singles {
		items = append(items, workItem{single: i})
	}
	for lo := 0; lo < len(pinned); lo += batchChunk {
		hi := lo + batchChunk
		if hi > len(pinned) {
			hi = len(pinned)
		}
		items = append(items, workItem{single: -1, chunk: pinned[lo:hi]})
	}
	forEachJob(len(items), workers, func(w int) {
		it := &items[w]
		switch {
		case it.chunk == nil:
			j := &jobs[it.single]
			ok[it.single] = j.Pub != nil && Verify(j.Pub, j.Hash[:], j.R, j.S)
		case len(it.chunk) == 1:
			ok[it.chunk[0]] = verifyPinned(&jobs[it.chunk[0]])
		default:
			verifyChunk(jobs, it.chunk, ok)
		}
	})
	return ok
}

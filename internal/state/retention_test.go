package state

import (
	"bytes"
	"math/rand"
	"testing"

	"onoffchain/internal/uint256"
)

// modelAccount is the reference view of one account in the retention
// differential.
type modelAccount struct {
	balance uint64
	nonce   uint64
	code    []byte
	slots   map[byte]byte
}

// liveNodes counts the nodes the state's root reaches (account trie plus
// every storage trie).
func liveNodes(s *StateDB) int {
	return s.db.CopyReachable(s.root, accountStorageRoot).Len()
}

// checkAgainstModel reads every account and slot through a fresh fork,
// which resolves everything from the node store rather than the object
// cache — a pruned live node shows up as a missing account or a zero slot.
func checkAgainstModel(t *testing.T, s *StateDB, model map[byte]*modelAccount, commit int) {
	t.Helper()
	f := s.Fork()
	for b := byte(0); b < 64; b++ {
		a, m := addr(b), model[b]
		if m == nil {
			if f.Exist(a) {
				t.Fatalf("commit %d: deleted account %d still exists", commit, b)
			}
			continue
		}
		if !f.Exist(a) {
			t.Fatalf("commit %d: live account %d unreadable", commit, b)
		}
		if got := f.GetBalance(a).Uint64(); got != m.balance {
			t.Fatalf("commit %d: account %d balance %d, want %d", commit, b, got, m.balance)
		}
		if got := f.GetNonce(a); got != m.nonce {
			t.Fatalf("commit %d: account %d nonce %d, want %d", commit, b, got, m.nonce)
		}
		if got := f.GetCode(a); !bytes.Equal(got, m.code) {
			t.Fatalf("commit %d: account %d code %x, want %x", commit, b, got, m.code)
		}
		for k := byte(0); k < 16; k++ {
			if got, want := f.GetState(a, slot(k)), slot(m.slots[k]); got != want {
				t.Fatalf("commit %d: account %d slot %d = %v, want %v", commit, b, k, got, want)
			}
		}
	}
}

// TestRetentionDifferential drives a pruning state and a never-pruned twin
// through the same seeded history of account updates and deletes,
// storage writes and code deploys. Roots must match byte for byte, every
// live account and slot must read back after each sweep, and the node
// store must stay within twice the live nodes plus the sweep floor.
func TestRetentionDifferential(t *testing.T) {
	const floor = 256
	rng := rand.New(rand.NewSource(11))
	pruned, twin := New(), New()
	pruned.pruneFloor, pruned.pruneAt = floor, floor
	twin.pruneFloor = 0
	codes := [][]byte{{0x60, 0x00}, {0x60, 0x01, 0x60, 0x02}, bytes.Repeat([]byte{0x5b}, 64)}
	model := make(map[byte]*modelAccount)
	touch := func(b byte) *modelAccount {
		if model[b] == nil {
			model[b] = &modelAccount{slots: make(map[byte]byte)}
		}
		return model[b]
	}
	sweeps := 0
	for commit := 0; commit < 400; commit++ {
		for op := 0; op < 12; op++ {
			b := byte(rng.Intn(64))
			a := addr(b)
			switch r := rng.Intn(10); {
			case r < 3:
				v := uint64(rng.Intn(1 << 30))
				for _, s := range []*StateDB{pruned, twin} {
					s.SetBalance(a, uint256.NewInt(v))
				}
				touch(b).balance = v
			case r < 4:
				v := uint64(rng.Intn(1000))
				for _, s := range []*StateDB{pruned, twin} {
					s.SetNonce(a, v)
				}
				touch(b).nonce = v
			case r < 8:
				k, v := byte(rng.Intn(16)), byte(rng.Intn(4)) // 0 clears the slot
				for _, s := range []*StateDB{pruned, twin} {
					s.SetState(a, slot(k), slot(v))
				}
				m := touch(b)
				if v == 0 {
					delete(m.slots, k)
				} else {
					m.slots[k] = v
				}
			case r < 9:
				c := codes[rng.Intn(len(codes))]
				for _, s := range []*StateDB{pruned, twin} {
					s.SetCode(a, c)
				}
				touch(b).code = c
			default:
				for _, s := range []*StateDB{pruned, twin} {
					s.SelfDestruct(a)
				}
				delete(model, b)
			}
			pruned.Finalise()
			twin.Finalise()
		}
		before := pruned.db.Len()
		if got, want := pruned.Commit(), twin.Commit(); got != want {
			t.Fatalf("commit %d: pruned root %v, never-pruned root %v", commit, got, want)
		}
		live := liveNodes(pruned)
		if n := pruned.db.Len(); n > 2*live+floor {
			t.Fatalf("commit %d: store holds %d nodes for %d live (bound %d)", commit, n, live, 2*live+floor)
		}
		if pruned.db.Len() < before {
			sweeps++
			if pruned.db.Len() != live {
				t.Fatalf("commit %d: sweep kept %d nodes, %d live", commit, pruned.db.Len(), live)
			}
			checkAgainstModel(t, pruned, model, commit)
		}
	}
	if sweeps < 5 {
		t.Fatalf("only %d sweeps in 400 commits: the differential exercised too little", sweeps)
	}
	if pruned.db.Len() >= twin.db.Len() {
		t.Errorf("pruned store %d nodes, never-pruned %d: nothing was dropped", pruned.db.Len(), twin.db.Len())
	}
	checkAgainstModel(t, pruned, model, 400)
}

// TestCopySurvivesParentPrune: a copy keeps the nodes of the root it was
// taken at, however often the parent commits and prunes afterwards.
func TestCopySurvivesParentPrune(t *testing.T) {
	s := New()
	s.pruneFloor, s.pruneAt = 16, 16
	for b := byte(0); b < 32; b++ {
		s.SetBalance(addr(b), uint256.NewInt(uint64(b)+1))
		s.SetState(addr(b), slot(1), slot(b+1))
	}
	s.Commit()
	cp := s.Copy()
	for round := 0; round < 20; round++ {
		for b := byte(0); b < 32; b++ {
			s.SetBalance(addr(b), uint256.NewInt(uint64(1000+round)))
			s.SetState(addr(b), slot(1), slot(byte(100+round)))
		}
		s.Commit()
	}
	f := cp.Fork()
	for b := byte(0); b < 32; b++ {
		if got := f.GetBalance(addr(b)).Uint64(); got != uint64(b)+1 {
			t.Fatalf("copy account %d balance %d after parent prunes, want %d", b, got, b+1)
		}
		if got := f.GetState(addr(b), slot(1)); got != slot(b+1) {
			t.Fatalf("copy account %d slot = %v after parent prunes", b, got)
		}
	}
	cp.SetBalance(addr(0), uint256.NewInt(7))
	cp.Commit()
}

// TestSetCodeSharesStoredCode: deploying the same code twice keeps one
// backing array, in the canonical state and through a fork.
func TestSetCodeSharesStoredCode(t *testing.T) {
	s := New()
	code := []byte{0x60, 0x2a, 0x60, 0x00, 0x52}
	s.SetCode(addr(1), code)
	s.SetCode(addr(2), append([]byte{}, code...))
	c1, c2 := s.GetCode(addr(1)), s.GetCode(addr(2))
	if !bytes.Equal(c1, code) || &c1[0] != &c2[0] {
		t.Fatal("identical SetCode calls keep separate copies")
	}
	code[0] = 0xff // the caller's buffer is not aliased
	if s.GetCode(addr(1))[0] != 0x60 {
		t.Fatal("stored code aliases the caller's slice")
	}
	s.Commit()
	stored := len(s.codes)
	f := s.Fork()
	f.SetCode(addr(3), []byte{0x60, 0x2a, 0x60, 0x00, 0x52})
	if c3 := f.GetCode(addr(3)); &c3[0] != &c1[0] {
		t.Error("a fork re-deploying parent code keeps its own copy")
	}
	if len(s.codes) != stored {
		t.Error("a fork stored code its parent already holds")
	}
}

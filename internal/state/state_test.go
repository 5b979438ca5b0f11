package state

import (
	"testing"

	"onoffchain/internal/trie"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

func addr(b byte) types.Address { return types.BytesToAddress([]byte{b}) }
func slot(b byte) types.Hash    { return types.BytesToHash([]byte{b}) }

func TestBalanceOperations(t *testing.T) {
	s := New()
	a := addr(1)
	if !s.GetBalance(a).IsZero() {
		t.Error("fresh account has balance")
	}
	s.AddBalance(a, uint256.NewInt(100))
	s.SubBalance(a, uint256.NewInt(30))
	if got := s.GetBalance(a); got.Uint64() != 70 {
		t.Errorf("balance = %s, want 70", got)
	}
	s.SetBalance(a, uint256.NewInt(5))
	if got := s.GetBalance(a); got.Uint64() != 5 {
		t.Errorf("balance = %s, want 5", got)
	}
	// GetBalance must return a copy, not an alias.
	b := s.GetBalance(a)
	b.SetUint64(9999)
	if s.GetBalance(a).Uint64() != 5 {
		t.Error("GetBalance leaks internal pointer")
	}
}

func TestNonceAndCode(t *testing.T) {
	s := New()
	a := addr(2)
	s.SetNonce(a, 7)
	if s.GetNonce(a) != 7 {
		t.Error("nonce mismatch")
	}
	code := []byte{0x60, 0x00, 0x60, 0x00, 0xf3}
	s.SetCode(a, code)
	if got := s.GetCode(a); string(got) != string(code) {
		t.Errorf("code = %x", got)
	}
	if s.GetCodeSize(a) != len(code) {
		t.Error("code size mismatch")
	}
	if s.GetCodeHash(a) == types.EmptyCodeHash {
		t.Error("code hash not updated")
	}
	if s.GetCodeHash(addr(99)) != (types.Hash{}) {
		t.Error("missing account should have zero code hash")
	}
}

func TestStorage(t *testing.T) {
	s := New()
	a := addr(3)
	k, v := slot(1), slot(0xAB)
	if !s.GetState(a, k).IsZero() {
		t.Error("fresh slot not zero")
	}
	s.SetState(a, k, v)
	if s.GetState(a, k) != v {
		t.Error("slot readback mismatch")
	}
	// Committed state is still the original (zero) until Commit.
	if !s.GetCommittedState(a, k).IsZero() {
		t.Error("committed state changed before commit")
	}
	s.Commit()
	if s.GetCommittedState(a, k) != v {
		t.Error("committed state not updated after commit")
	}
}

func TestSnapshotRevert(t *testing.T) {
	s := New()
	a := addr(4)
	s.AddBalance(a, uint256.NewInt(1000))
	s.SetNonce(a, 1)
	s.SetState(a, slot(1), slot(10))

	snap := s.Snapshot()
	s.SubBalance(a, uint256.NewInt(999))
	s.SetNonce(a, 42)
	s.SetState(a, slot(1), slot(99))
	s.SetState(a, slot(2), slot(77))
	s.SetCode(a, []byte{1, 2, 3})

	s.RevertToSnapshot(snap)

	if got := s.GetBalance(a); got.Uint64() != 1000 {
		t.Errorf("balance after revert = %s", got)
	}
	if s.GetNonce(a) != 1 {
		t.Errorf("nonce after revert = %d", s.GetNonce(a))
	}
	if s.GetState(a, slot(1)) != slot(10) {
		t.Error("slot 1 not reverted")
	}
	if !s.GetState(a, slot(2)).IsZero() {
		t.Error("slot 2 not reverted")
	}
	if s.GetCode(a) != nil {
		t.Error("code not reverted")
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := New()
	a := addr(5)
	s.AddBalance(a, uint256.NewInt(10))
	s1 := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(10))
	s2 := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(10))
	s.RevertToSnapshot(s2)
	if s.GetBalance(a).Uint64() != 20 {
		t.Errorf("after inner revert: %s", s.GetBalance(a))
	}
	s.RevertToSnapshot(s1)
	if s.GetBalance(a).Uint64() != 10 {
		t.Errorf("after outer revert: %s", s.GetBalance(a))
	}
}

func TestRevertAccountCreation(t *testing.T) {
	s := New()
	a := addr(6)
	snap := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(1))
	if !s.Exist(a) {
		t.Fatal("account not created")
	}
	s.RevertToSnapshot(snap)
	if s.Exist(a) {
		t.Error("account creation not reverted")
	}
}

func TestSelfDestruct(t *testing.T) {
	s := New()
	a := addr(7)
	s.AddBalance(a, uint256.NewInt(500))
	s.SetCode(a, []byte{0xff})

	snap := s.Snapshot()
	s.SelfDestruct(a)
	if !s.HasSelfDestructed(a) || !s.GetBalance(a).IsZero() {
		t.Error("selfdestruct not applied")
	}
	s.RevertToSnapshot(snap)
	if s.HasSelfDestructed(a) || s.GetBalance(a).Uint64() != 500 {
		t.Error("selfdestruct not reverted")
	}

	s.SelfDestruct(a)
	s.Commit()
	if s.Exist(a) {
		t.Error("selfdestructed account survived commit")
	}
}

func TestRefundCounter(t *testing.T) {
	s := New()
	s.AddRefund(15000)
	s.AddRefund(15000)
	if s.GetRefund() != 30000 {
		t.Error("refund accumulation wrong")
	}
	snap := s.Snapshot()
	s.AddRefund(4800)
	s.RevertToSnapshot(snap)
	if s.GetRefund() != 30000 {
		t.Error("refund not reverted")
	}
	s.SubRefund(30000)
	if s.GetRefund() != 0 {
		t.Error("SubRefund wrong")
	}
}

func TestLogsJournaled(t *testing.T) {
	s := New()
	s.SetTxContext(types.BytesToHash([]byte{1}), 3, 12)
	s.AddLog(&types.Log{Address: addr(1)})
	snap := s.Snapshot()
	s.AddLog(&types.Log{Address: addr(2)})
	s.AddLog(&types.Log{Address: addr(3)})
	if len(s.Logs()) != 3 {
		t.Fatal("logs not recorded")
	}
	s.RevertToSnapshot(snap)
	if len(s.Logs()) != 1 {
		t.Error("logs not reverted")
	}
	logs := s.TakeLogs()
	if len(logs) != 1 || logs[0].TxIndex != 3 || logs[0].BlockNumber != 12 {
		t.Error("log context wrong")
	}
	if len(s.Logs()) != 0 {
		t.Error("TakeLogs did not clear")
	}
}

func TestCommitRootDeterministic(t *testing.T) {
	build := func() types.Hash {
		s := New()
		for i := byte(1); i <= 20; i++ {
			s.AddBalance(addr(i), uint256.NewInt(uint64(i)*1000))
			s.SetNonce(addr(i), uint64(i))
			s.SetState(addr(i), slot(i), slot(i+1))
		}
		return s.Commit()
	}
	if build() != build() {
		t.Error("commit root not deterministic")
	}
}

func TestCommitRootChangesWithState(t *testing.T) {
	s := New()
	s.AddBalance(addr(1), uint256.NewInt(1))
	r1 := s.Commit()
	s.AddBalance(addr(1), uint256.NewInt(1))
	r2 := s.Commit()
	if r1 == r2 {
		t.Error("root unchanged after balance change")
	}
	if s.Root() != r2 {
		t.Error("Root() out of date")
	}
}

func TestEmptyStateRoot(t *testing.T) {
	s := New()
	if s.Commit() != trie.EmptyRoot {
		t.Error("empty state root != EmptyRoot")
	}
}

func TestStorageSurvivesCommitCycles(t *testing.T) {
	s := New()
	a := addr(9)
	s.SetState(a, slot(1), slot(11))
	s.SetState(a, slot(2), slot(22))
	s.Commit()
	s.SetState(a, slot(3), slot(33))
	s.Commit()
	if s.GetState(a, slot(1)) != slot(11) || s.GetState(a, slot(2)) != slot(22) || s.GetState(a, slot(3)) != slot(33) {
		t.Error("storage lost across commits")
	}
	// Clearing a slot must remove it.
	s.SetState(a, slot(2), types.Hash{})
	s.Commit()
	if !s.GetState(a, slot(2)).IsZero() {
		t.Error("cleared slot survived")
	}
}

func TestCopyIsolation(t *testing.T) {
	s := New()
	a := addr(10)
	s.AddBalance(a, uint256.NewInt(100))
	s.SetState(a, slot(1), slot(5))
	s.SetCode(a, []byte{0xaa})
	s.Commit()

	cp := s.Copy()
	cp.AddBalance(a, uint256.NewInt(900))
	cp.SetState(a, slot(1), slot(6))

	if s.GetBalance(a).Uint64() != 100 {
		t.Error("copy mutation leaked balance")
	}
	if s.GetState(a, slot(1)) != slot(5) {
		t.Error("copy mutation leaked storage")
	}
	if cp.GetBalance(a).Uint64() != 1000 || cp.GetState(a, slot(1)) != slot(6) {
		t.Error("copy lost its own mutations")
	}
	if string(cp.GetCode(a)) != "\xaa" {
		t.Error("copy lost code")
	}
	// Copy must be able to commit independently.
	if cp.Commit() == s.Root() {
		t.Error("diverged copies share a root")
	}
}

func TestEmptyPerEIP161(t *testing.T) {
	s := New()
	a := addr(11)
	if !s.Empty(a) {
		t.Error("missing account not empty")
	}
	s.AddBalance(a, new(uint256.Int)) // touch with zero
	if !s.Empty(a) {
		t.Error("zero-balance touched account not empty")
	}
	s.AddBalance(a, uint256.NewInt(1))
	if s.Empty(a) {
		t.Error("funded account considered empty")
	}
}

func TestFinaliseClearsJournal(t *testing.T) {
	s := New()
	s.AddBalance(addr(1), uint256.NewInt(10))
	s.AddRefund(100)
	s.Finalise()
	if s.GetRefund() != 0 {
		t.Error("refund survived finalise")
	}
	if s.Snapshot() != 0 {
		t.Error("journal not cleared")
	}
	// Post-finalise revert to 0 must be a no-op, not roll back balances.
	s.RevertToSnapshot(0)
	if s.GetBalance(addr(1)).Uint64() != 10 {
		t.Error("finalised mutation rolled back")
	}
}

// TestParallelCommitMatchesSerial: the parallel storage flush must produce
// the identical state root as a serial flush of the same mutations.
func TestParallelCommitMatchesSerial(t *testing.T) {
	build := func() *StateDB {
		s := New()
		for a := byte(1); a <= 24; a++ {
			s.SetNonce(addr(a), uint64(a))
			s.AddBalance(addr(a), uint256.NewInt(uint64(a)*1000))
			for k := byte(0); k < 8; k++ {
				s.SetState(addr(a), slot(a^k), types.BytesToHash([]byte{a, k, a + k}))
			}
		}
		return s
	}
	serial, parallel := build(), build()
	// Serial flush.
	serial.Finalise()
	var sObjs []*stateObject
	for _, obj := range serial.objects {
		if len(obj.storage) > 0 {
			sObjs = append(sObjs, obj)
		}
	}
	serial.flushStorage(sObjs, 1)
	rootSerial := serial.Commit()
	// Parallel flush.
	parallel.Finalise()
	var pObjs []*stateObject
	for _, obj := range parallel.objects {
		if len(obj.storage) > 0 {
			pObjs = append(pObjs, obj)
		}
	}
	parallel.flushStorage(pObjs, 8)
	rootParallel := parallel.Commit()
	if rootSerial != rootParallel {
		t.Fatalf("parallel commit root %s, serial %s", rootParallel.Hex(), rootSerial.Hex())
	}
	// Storage still readable after both.
	for a := byte(1); a <= 24; a++ {
		for k := byte(0); k < 8; k++ {
			want := types.BytesToHash([]byte{a, k, a + k})
			if got := parallel.GetState(addr(a), slot(a^k)); got != want {
				t.Fatalf("account %d slot %d: got %s, want %s", a, k, got.Hex(), want.Hex())
			}
		}
	}
}

// committedBase builds a StateDB with a few committed accounts: a funded
// EOA at 0x01, a contract at 0x02 with code and storage.
func committedBase(t *testing.T) *StateDB {
	t.Helper()
	s := New()
	s.SetBalance(addr(1), uint256.NewInt(1_000_000))
	s.SetNonce(addr(1), 7)
	s.SetBalance(addr(2), uint256.NewInt(1))
	s.SetCode(addr(2), []byte{0x60, 0x00})
	s.SetState(addr(2), slot(1), slot(0xAA))
	s.Finalise()
	s.Commit()
	return s
}

// TestForkIsolation: a fork sees only the committed root; parent dirt stays
// invisible, fork dirt never leaks back.
func TestForkIsolation(t *testing.T) {
	base := committedBase(t)
	base.SetBalance(addr(1), uint256.NewInt(77)) // uncommitted parent dirt

	f := base.Fork()
	if got := f.GetBalance(addr(1)); !got.Eq(uint256.NewInt(1_000_000)) {
		t.Errorf("fork sees uncommitted parent write: %s", got)
	}
	f.SetBalance(addr(1), uint256.NewInt(5))
	f.SetState(addr(2), slot(1), slot(0xFF))
	if got := base.GetBalance(addr(1)); !got.Eq(uint256.NewInt(77)) {
		t.Errorf("fork write leaked into parent: %s", got)
	}
	if got := base.GetState(addr(2), slot(1)); got != slot(0xAA) {
		t.Errorf("fork storage write leaked into parent: %x", got)
	}
}

// TestSnapshotRevertAcrossForkReads: journal revert inside a fork restores
// values loaded lazily from the committed trie.
func TestSnapshotRevertAcrossForkReads(t *testing.T) {
	base := committedBase(t)
	f := base.Fork()
	snap := f.Snapshot()
	f.SetBalance(addr(1), uint256.NewInt(3))
	f.SetState(addr(2), slot(1), slot(0x11))
	f.RevertToSnapshot(snap)
	if got := f.GetBalance(addr(1)); !got.Eq(uint256.NewInt(1_000_000)) {
		t.Errorf("revert lost trie-loaded balance: %s", got)
	}
	if got := f.GetState(addr(2), slot(1)); got != slot(0xAA) {
		t.Errorf("revert lost trie-loaded storage: %x", got)
	}
}

func TestResetRefund(t *testing.T) {
	s := New()
	s.AddRefund(100)
	s.SubRefund(40)
	if s.GetRefund() != 60 {
		t.Fatalf("refund = %d", s.GetRefund())
	}
	s.ResetRefund()
	if s.GetRefund() != 0 {
		t.Error("ResetRefund left a residue")
	}
}

// TestDirtySetIsolationAcrossCommit: committing a fork does not disturb the
// parent or sibling forks mid-flight.
func TestDirtySetIsolationAcrossCommit(t *testing.T) {
	base := committedBase(t)
	f1 := base.Fork()
	f2 := base.Fork()
	f1.SetBalance(addr(1), uint256.NewInt(111))
	f1.Finalise()
	f1.Commit()
	if got := f2.GetBalance(addr(1)); !got.Eq(uint256.NewInt(1_000_000)) {
		t.Errorf("sibling fork observed f1's commit: %s", got)
	}
	if got := base.GetBalance(addr(1)); !got.Eq(uint256.NewInt(1_000_000)) {
		t.Errorf("parent observed f1's commit: %s", got)
	}
}

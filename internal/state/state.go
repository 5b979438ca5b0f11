// Package state implements the world state: accounts with balances, nonces,
// contract code and storage, journaled for transactional revert (the EVM's
// snapshot/revert semantics) and committed into a Merkle Patricia Trie for
// a verifiable state root.
package state

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"onoffchain/internal/keccak"
	"onoffchain/internal/rlp"
	"onoffchain/internal/trie"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// Account is the canonical four-field Ethereum account.
type Account struct {
	Nonce    uint64
	Balance  *uint256.Int
	Root     types.Hash // storage trie root
	CodeHash types.Hash
}

// EncodeRLP encodes the account for the state trie.
func (a *Account) EncodeRLP() []byte {
	return rlp.EncodeList(
		rlp.Uint(a.Nonce),
		rlp.Bytes(a.Balance.Bytes()),
		rlp.Bytes(a.Root.Bytes()),
		rlp.Bytes(a.CodeHash.Bytes()),
	)
}

func decodeAccount(enc []byte) (*Account, error) {
	item, err := rlp.Decode(enc)
	if err != nil {
		return nil, err
	}
	if item.Kind != rlp.KindList || len(item.Items) != 4 {
		return nil, fmt.Errorf("state: malformed account encoding")
	}
	nonce, err := item.Items[0].Uint64()
	if err != nil {
		return nil, err
	}
	bal := new(uint256.Int).SetBytes(item.Items[1].Bytes)
	return &Account{
		Nonce:    nonce,
		Balance:  bal,
		Root:     types.BytesToHash(item.Items[2].Bytes),
		CodeHash: types.BytesToHash(item.Items[3].Bytes),
	}, nil
}

// stateObject is the in-memory representation of an account under
// modification.
type stateObject struct {
	address        types.Address
	account        Account
	code           []byte
	storage        map[types.Hash]types.Hash // dirty view
	originStorage  map[types.Hash]types.Hash // committed view (lazy)
	selfDestructed bool
	deleted        bool // removed at commit
	created        bool // created in this transaction scope
}

func newObject(addr types.Address) *stateObject {
	return &stateObject{
		address:       addr,
		account:       Account{Balance: new(uint256.Int), Root: trie.EmptyRoot, CodeHash: types.EmptyCodeHash},
		storage:       make(map[types.Hash]types.Hash),
		originStorage: make(map[types.Hash]types.Hash),
	}
}

func (o *stateObject) empty() bool {
	return o.account.Nonce == 0 && o.account.Balance.IsZero() && o.account.CodeHash == types.EmptyCodeHash
}

// journalEntry undoes one state mutation.
type journalEntry struct {
	revert func(*StateDB)
	dirty  *types.Address // account touched, for dirty tracking
}

// StateDB is the mutable world state with snapshot/revert support.
type StateDB struct {
	db      *trie.Database
	tr      *trie.SecureTrie
	codes   map[types.Hash][]byte
	objects map[types.Address]*stateObject

	root types.Hash // root as of the last Commit

	// Retention: the state that owns its node store (New, Copy) prunes it
	// on Commit once it reaches pruneAt nodes, keeping only what the new
	// root reaches. Forks share their parent's store and leave pruneFloor
	// at zero, so they never prune.
	pruneFloor int // smallest store size worth a sweep; 0: never prune
	pruneAt    int

	// dirties are accounts mutated since the last Commit. Commit flushes
	// only these: rewriting every cached object would make each block
	// commit O(all accounts ever touched) — quadratic over a long chain.
	dirties map[types.Address]struct{}

	journal []journalEntry
	refund  uint64
	logs    []*types.Log

	// Per-transaction context for logs.
	txHash  types.Hash
	txIndex uint
	block   uint64
}

// pruneFloorNodes is the node-store size below which Commit never sweeps:
// marking a small state costs more than the memory it would give back.
const pruneFloorNodes = 1 << 13

// New creates an empty state backed by a fresh trie database.
func New() *StateDB {
	db := trie.NewDatabase()
	return &StateDB{
		db:         db,
		tr:         trie.NewSecure(db),
		root:       trie.EmptyRoot,
		codes:      make(map[types.Hash][]byte),
		objects:    make(map[types.Address]*stateObject),
		dirties:    make(map[types.Address]struct{}),
		pruneFloor: pruneFloorNodes,
		pruneAt:    pruneFloorNodes,
	}
}

// SetTxContext sets the transaction context recorded on emitted logs.
func (s *StateDB) SetTxContext(txHash types.Hash, txIndex uint, block uint64) {
	s.txHash, s.txIndex, s.block = txHash, txIndex, block
}

func (s *StateDB) getObject(addr types.Address) *stateObject {
	if obj, ok := s.objects[addr]; ok {
		if obj.deleted {
			return nil
		}
		return obj
	}
	// Load from trie if committed earlier.
	enc := s.tr.Get(addr.Bytes())
	if enc == nil {
		return nil
	}
	acct, err := decodeAccount(enc)
	if err != nil {
		panic("state: corrupt account: " + err.Error())
	}
	obj := newObject(addr)
	obj.account = *acct
	obj.account.Balance = acct.Balance.Clone()
	s.objects[addr] = obj
	return obj
}

func (s *StateDB) getOrCreateObject(addr types.Address) *stateObject {
	if obj := s.getObject(addr); obj != nil {
		return obj
	}
	obj := newObject(addr)
	prev, hadPrev := s.objects[addr]
	s.objects[addr] = obj
	s.appendJournal(addr, func(db *StateDB) {
		if hadPrev {
			db.objects[addr] = prev
		} else {
			delete(db.objects, addr)
		}
	})
	return obj
}

func (s *StateDB) appendJournal(addr types.Address, revert func(*StateDB)) {
	a := addr
	s.dirties[addr] = struct{}{}
	s.journal = append(s.journal, journalEntry{revert: revert, dirty: &a})
}

// Exist reports whether the account exists (even if empty).
func (s *StateDB) Exist(addr types.Address) bool {
	return s.getObject(addr) != nil
}

// Empty reports whether the account is non-existent or empty per EIP-161.
func (s *StateDB) Empty(addr types.Address) bool {
	obj := s.getObject(addr)
	return obj == nil || obj.empty()
}

// CreateAccount explicitly creates an account (contract deployment target).
func (s *StateDB) CreateAccount(addr types.Address) {
	obj := s.getOrCreateObject(addr)
	obj.created = true
}

// GetBalance returns the account balance (zero for missing accounts).
func (s *StateDB) GetBalance(addr types.Address) *uint256.Int {
	if obj := s.getObject(addr); obj != nil {
		return obj.account.Balance.Clone()
	}
	return new(uint256.Int)
}

// AddBalance credits the account.
func (s *StateDB) AddBalance(addr types.Address, amount *uint256.Int) {
	obj := s.getOrCreateObject(addr)
	prev := obj.account.Balance.Clone()
	s.appendJournal(addr, func(*StateDB) { obj.account.Balance = prev })
	obj.account.Balance = new(uint256.Int).Add(obj.account.Balance, amount)
}

// SubBalance debits the account (caller must check sufficiency).
func (s *StateDB) SubBalance(addr types.Address, amount *uint256.Int) {
	obj := s.getOrCreateObject(addr)
	prev := obj.account.Balance.Clone()
	s.appendJournal(addr, func(*StateDB) { obj.account.Balance = prev })
	obj.account.Balance = new(uint256.Int).Sub(obj.account.Balance, amount)
}

// SetBalance forces a balance (used by genesis allocation and tests).
func (s *StateDB) SetBalance(addr types.Address, amount *uint256.Int) {
	obj := s.getOrCreateObject(addr)
	prev := obj.account.Balance.Clone()
	s.appendJournal(addr, func(*StateDB) { obj.account.Balance = prev })
	obj.account.Balance = amount.Clone()
}

// GetNonce returns the account nonce.
func (s *StateDB) GetNonce(addr types.Address) uint64 {
	if obj := s.getObject(addr); obj != nil {
		return obj.account.Nonce
	}
	return 0
}

// SetNonce sets the account nonce.
func (s *StateDB) SetNonce(addr types.Address, nonce uint64) {
	obj := s.getOrCreateObject(addr)
	prev := obj.account.Nonce
	s.appendJournal(addr, func(*StateDB) { obj.account.Nonce = prev })
	obj.account.Nonce = nonce
}

// GetCode returns the contract code.
func (s *StateDB) GetCode(addr types.Address) []byte {
	obj := s.getObject(addr)
	if obj == nil {
		return nil
	}
	if obj.code != nil {
		return obj.code
	}
	if obj.account.CodeHash == types.EmptyCodeHash {
		return nil
	}
	obj.code = s.codes[obj.account.CodeHash]
	return obj.code
}

// GetCodeHash returns the code hash (zero hash for missing accounts).
func (s *StateDB) GetCodeHash(addr types.Address) types.Hash {
	obj := s.getObject(addr)
	if obj == nil {
		return types.Hash{}
	}
	return obj.account.CodeHash
}

// GetCodeSize returns len(code).
func (s *StateDB) GetCodeSize(addr types.Address) int {
	return len(s.GetCode(addr))
}

// SetCode installs contract code. Code is immutable once stored, so an
// account whose code is already in the store (a contract deployed many
// times) shares the stored slice instead of keeping its own copy.
func (s *StateDB) SetCode(addr types.Address, code []byte) {
	obj := s.getOrCreateObject(addr)
	prevHash, prevCode := obj.account.CodeHash, obj.code
	s.appendJournal(addr, func(*StateDB) {
		obj.account.CodeHash, obj.code = prevHash, prevCode
	})
	h := types.Hash(keccak.Sum256(code))
	stored, ok := s.codes[h]
	if !ok {
		stored = append([]byte{}, code...)
		s.codes[h] = stored
	}
	obj.account.CodeHash = h
	obj.code = stored
}

// GetState reads a storage slot.
func (s *StateDB) GetState(addr types.Address, key types.Hash) types.Hash {
	obj := s.getObject(addr)
	if obj == nil {
		return types.Hash{}
	}
	if v, ok := obj.storage[key]; ok {
		return v
	}
	return s.committedState(obj, key)
}

// GetCommittedState reads the slot value as of the last commit (the
// "original" value used by SSTORE refund rules).
func (s *StateDB) GetCommittedState(addr types.Address, key types.Hash) types.Hash {
	obj := s.getObject(addr)
	if obj == nil {
		return types.Hash{}
	}
	return s.committedState(obj, key)
}

func (s *StateDB) committedState(obj *stateObject, key types.Hash) types.Hash {
	if v, ok := obj.originStorage[key]; ok {
		return v
	}
	var v types.Hash
	if obj.account.Root != trie.EmptyRoot {
		st, err := trie.FromRoot(s.db, obj.account.Root)
		if err == nil {
			if enc := st.Get(keccak.Sum256Bytes(key.Bytes())); enc != nil {
				item, err := rlp.Decode(enc)
				if err == nil {
					v = types.BytesToHash(item.Bytes)
				}
			}
		}
	}
	obj.originStorage[key] = v
	return v
}

// SetState writes a storage slot.
func (s *StateDB) SetState(addr types.Address, key, value types.Hash) {
	obj := s.getOrCreateObject(addr)
	prev, hadPrev := obj.storage[key]
	s.appendJournal(addr, func(*StateDB) {
		if hadPrev {
			obj.storage[key] = prev
		} else {
			delete(obj.storage, key)
		}
	})
	obj.storage[key] = value
}

// SelfDestruct marks the contract for deletion and zeroes its balance.
func (s *StateDB) SelfDestruct(addr types.Address) {
	obj := s.getObject(addr)
	if obj == nil {
		return
	}
	prevBalance := obj.account.Balance.Clone()
	prevFlag := obj.selfDestructed
	s.appendJournal(addr, func(*StateDB) {
		obj.selfDestructed = prevFlag
		obj.account.Balance = prevBalance
	})
	obj.selfDestructed = true
	obj.account.Balance = new(uint256.Int)
}

// HasSelfDestructed reports whether the account is marked for deletion.
func (s *StateDB) HasSelfDestructed(addr types.Address) bool {
	obj := s.getObject(addr)
	return obj != nil && obj.selfDestructed
}

// AddRefund accumulates gas refund (SSTORE clears, selfdestruct).
func (s *StateDB) AddRefund(gas uint64) {
	prev := s.refund
	s.journal = append(s.journal, journalEntry{revert: func(db *StateDB) { db.refund = prev }})
	s.refund += gas
}

// SubRefund decreases the refund counter.
func (s *StateDB) SubRefund(gas uint64) {
	prev := s.refund
	s.journal = append(s.journal, journalEntry{revert: func(db *StateDB) { db.refund = prev }})
	if gas > s.refund {
		panic("state: refund underflow")
	}
	s.refund -= gas
}

// GetRefund returns the accumulated refund.
func (s *StateDB) GetRefund() uint64 { return s.refund }

// ResetRefund clears the refund counter (start of transaction).
func (s *StateDB) ResetRefund() { s.refund = 0 }

// AddLog records an emitted log, stamped with the tx context.
func (s *StateDB) AddLog(log *types.Log) {
	log.TxHash = s.txHash
	log.TxIndex = s.txIndex
	log.BlockNumber = s.block
	log.Index = uint(len(s.logs))
	prevLen := len(s.logs)
	s.journal = append(s.journal, journalEntry{revert: func(db *StateDB) { db.logs = db.logs[:prevLen] }})
	s.logs = append(s.logs, log)
}

// Logs returns all logs recorded since the last TakeLogs.
func (s *StateDB) Logs() []*types.Log { return s.logs }

// TakeLogs returns and clears the recorded logs (end of transaction).
func (s *StateDB) TakeLogs() []*types.Log {
	logs := s.logs
	s.logs = nil
	return logs
}

// Snapshot returns an identifier for the current journal position.
func (s *StateDB) Snapshot() int { return len(s.journal) }

// RevertToSnapshot undoes every mutation after the snapshot.
func (s *StateDB) RevertToSnapshot(id int) {
	if id < 0 || id > len(s.journal) {
		panic(fmt.Sprintf("state: invalid snapshot id %d (journal %d)", id, len(s.journal)))
	}
	for i := len(s.journal) - 1; i >= id; i-- {
		s.journal[i].revert(s)
	}
	s.journal = s.journal[:id]
}

// Finalise clears self-destructed and empty-touched accounts at transaction
// end and resets the journal (mutations become permanent).
func (s *StateDB) Finalise() {
	for _, obj := range s.objects {
		if obj.selfDestructed {
			obj.deleted = true
		}
	}
	s.journal = s.journal[:0]
	s.refund = 0
}

// Commit finalises the accounts mutated since the last Commit into the
// trie and returns the new state root. Clean cached objects are skipped.
//
// The per-account storage flush is embarrassingly parallel — each account
// owns a disjoint storage trie, and the shared node store is concurrency-
// safe — so on multi-core hosts the storage tries are flushed across a
// worker pool before the (serial, deterministic) account-trie update.
func (s *StateDB) Commit() types.Hash {
	s.Finalise()
	// Deterministic iteration order for reproducible tries.
	addrs := make([]types.Address, 0, len(s.dirties))
	for addr := range s.dirties {
		if _, ok := s.objects[addr]; ok {
			addrs = append(addrs, addr)
		}
	}
	sort.Slice(addrs, func(i, j int) bool {
		return string(addrs[i].Bytes()) < string(addrs[j].Bytes())
	})
	// Phase 1: flush every live account's dirty storage into its own
	// storage trie, in parallel when it pays.
	var flush []*stateObject
	for _, addr := range addrs {
		obj := s.objects[addr]
		if !obj.deleted && len(obj.storage) > 0 {
			flush = append(flush, obj)
		}
	}
	s.flushStorage(flush, runtime.GOMAXPROCS(0))
	// Phase 2: fold the accounts into the state trie serially.
	for _, addr := range addrs {
		obj := s.objects[addr]
		if obj.deleted {
			s.tr.Delete(addr.Bytes())
			delete(s.objects, addr)
			continue
		}
		s.tr.Update(addr.Bytes(), obj.account.EncodeRLP())
	}
	s.dirties = make(map[types.Address]struct{})
	s.root = s.tr.Hash()
	s.maybePrune()
	return s.root
}

// maybePrune drops the trie nodes the new root no longer reaches once the
// node store has doubled since the last sweep, so the store stays within
// twice the live state (plus the floor) at amortized O(1) marking work per
// stored node. Marking starts at the account root and follows every
// account's storage root. Nothing else may still need an older root: the
// chain runs Commit and Chain.Call under its lock, so no fork outlives the
// Commit that follows it.
//
// The sweep also empties the account cache. Right after Commit every
// cached object is clean, so each one reloads from the trie on its next
// touch; without this the cache would keep every account ever touched
// (with its storage maps) resident, long after its session finished.
func (s *StateDB) maybePrune() {
	if s.pruneFloor == 0 || s.db.Len() < s.pruneAt {
		return
	}
	live := s.db.Prune(s.root, accountStorageRoot)
	s.pruneAt = max(2*live, s.pruneFloor)
	s.objects = make(map[types.Address]*stateObject)
}

// accountStorageRoot is the state trie's trie.LeafRoot: an account leaf
// commits to its storage trie's root. Storage leaves are RLP strings, not
// lists, so the same walk passes over them.
func accountStorageRoot(enc []byte) (types.Hash, bool) {
	kind, fields, _, err := rlp.Split(enc)
	if err != nil || kind != rlp.KindList {
		return types.Hash{}, false
	}
	var root []byte
	for i := 0; i < 3; i++ { // nonce, balance, storage root
		if kind, root, fields, err = rlp.Split(fields); err != nil || kind != rlp.KindBytes {
			return types.Hash{}, false
		}
	}
	if len(root) != 32 {
		return types.Hash{}, false
	}
	h := types.BytesToHash(root)
	return h, h != trie.EmptyRoot
}

// flushStorage commits the dirty storage of every object across at most
// workers goroutines. Each object's flush touches only that object and
// its own storage trie (the shared node database is mutex-guarded), so
// the resulting storage roots are identical to a serial flush.
func (s *StateDB) flushStorage(objs []*stateObject, workers int) {
	if workers > len(objs) {
		workers = len(objs)
	}
	if workers <= 1 {
		for _, obj := range objs {
			s.flushOneStorage(obj)
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
				if i >= len(objs) {
					return
				}
				s.flushOneStorage(objs[i])
			}
		}()
	}
	wg.Wait()
}

// flushOneStorage writes one account's dirty storage slots into its
// storage trie and records the new root on the account.
func (s *StateDB) flushOneStorage(obj *stateObject) {
	st, err := trie.FromRoot(s.db, obj.account.Root)
	if err != nil {
		st, _ = trie.FromRoot(s.db, trie.EmptyRoot)
	}
	keys := make([]types.Hash, 0, len(obj.storage))
	for k := range obj.storage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return string(keys[i].Bytes()) < string(keys[j].Bytes())
	})
	for _, k := range keys {
		v := obj.storage[k]
		hashedKey := keccak.Sum256Bytes(k.Bytes())
		if v.IsZero() {
			st.Delete(hashedKey)
		} else {
			// Store values RLP-encoded with leading zeros trimmed,
			// matching Ethereum's storage encoding.
			st.Update(hashedKey, rlp.EncodeBytes(trimLeftZeros(v.Bytes())))
		}
		obj.originStorage[k] = v
	}
	obj.account.Root = st.Hash()
	obj.storage = make(map[types.Hash]types.Hash)
}

// Root returns the state root as of the last Commit.
func (s *StateDB) Root() types.Hash { return s.root }

func trimLeftZeros(b []byte) []byte {
	i := 0
	for i < len(b) && b[i] == 0 {
		i++
	}
	return b[i:]
}

// Fork returns a view of the last committed state that loads accounts
// lazily from the trie, for eth_call-style speculative execution. Unlike
// Copy it is O(1): nothing is copied up front. The node store is shared
// and the fork is valid only until the parent's next Commit, which may
// prune the nodes of the root the fork reads. The code store is shared
// too; it is keyed by code hash and never pruned, so entries a fork adds
// are harmless. The caller must ensure the canonical state is not mutated
// concurrently (Chain.Call holds the chain lock).
func (s *StateDB) Fork() *StateDB {
	tr, err := trie.NewSecureFromRoot(s.db, s.root)
	if err != nil {
		panic("state: fork from unknown root: " + err.Error())
	}
	return &StateDB{
		db:      s.db,
		tr:      tr,
		root:    s.root,
		codes:   s.codes,
		objects: make(map[types.Address]*stateObject),
		dirties: make(map[types.Address]struct{}),
	}
}

// Copy returns a deep copy of the state, including uncommitted mutations.
// The copy gets its own node store holding the nodes its root reaches, so
// it stays valid however either side commits and prunes afterwards.
func (s *StateDB) Copy() *StateDB {
	db := s.db.CopyReachable(s.root, accountStorageRoot)
	tr, err := trie.NewSecureFromRoot(db, s.root)
	if err != nil {
		panic("state: copy from unknown root: " + err.Error())
	}
	cp := &StateDB{
		db:         db,
		tr:         tr,
		root:       s.root,
		codes:      make(map[types.Hash][]byte, len(s.codes)),
		objects:    make(map[types.Address]*stateObject, len(s.objects)),
		dirties:    make(map[types.Address]struct{}, len(s.dirties)),
		refund:     s.refund,
		pruneFloor: pruneFloorNodes,
		pruneAt:    max(2*db.Len(), pruneFloorNodes),
	}
	for addr := range s.dirties {
		cp.dirties[addr] = struct{}{}
	}
	for h, code := range s.codes {
		cp.codes[h] = code
	}
	for addr, obj := range s.objects {
		n := newObject(addr)
		n.account = obj.account
		n.account.Balance = obj.account.Balance.Clone()
		n.code = append([]byte{}, obj.code...)
		for k, v := range obj.storage {
			n.storage[k] = v
		}
		for k, v := range obj.originStorage {
			n.originStorage[k] = v
		}
		n.selfDestructed = obj.selfDestructed
		n.deleted = obj.deleted
		n.created = obj.created
		cp.objects[addr] = n
	}
	return cp
}

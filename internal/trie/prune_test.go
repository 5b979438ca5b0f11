package trie

import (
	"fmt"
	"math/rand"
	"testing"

	"onoffchain/internal/rlp"
	"onoffchain/internal/types"
)

// reachableByDecode is the reference for the in-place marking walk: it
// resolves every hash reference through the full node decoder.
func reachableByDecode(t *testing.T, db *Database, root types.Hash) map[types.Hash]bool {
	t.Helper()
	seen := make(map[types.Hash]bool)
	var visit func(h types.Hash)
	var walk func(n node)
	visit = func(h types.Hash) {
		if seen[h] {
			return
		}
		enc, ok := db.Node(h)
		if !ok {
			return
		}
		seen[h] = true
		item, err := rlp.Decode(enc)
		if err != nil {
			t.Fatalf("stored node %x: %v", h, err)
		}
		n, err := decodeNode(item)
		if err != nil {
			t.Fatalf("stored node %x: %v", h, err)
		}
		walk(n)
	}
	walk = func(n node) {
		switch n := n.(type) {
		case hashNode:
			visit(types.BytesToHash(n))
		case *shortNode:
			walk(n.Val)
		case *fullNode:
			for _, c := range n.Children {
				walk(c)
			}
		}
	}
	visit(root)
	return seen
}

// TestPruneKeepsExactlyReachable: after many update/delete rounds on one
// store, Prune keeps exactly the nodes the latest root reaches — inline
// children included — and every live key still reads back.
func TestPruneKeepsExactlyReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := NewDatabase()
	tr := New(db)
	model := make(map[string]string)
	for round := 0; round < 40; round++ {
		for i := 0; i < 25; i++ {
			// Short keys and values give inline (embedded) nodes too.
			k := fmt.Sprintf("k%d", rng.Intn(300))
			if rng.Intn(4) == 0 {
				tr.Delete([]byte(k))
				delete(model, k)
				continue
			}
			v := fmt.Sprintf("v%d", rng.Intn(1<<20))
			if rng.Intn(3) == 0 {
				v += string(make([]byte, 40)) // a value long enough to hash its leaf
			}
			tr.Update([]byte(k), []byte(v))
			model[k] = v
		}
		root := tr.Hash()
		want := reachableByDecode(t, db, root)
		before := db.Len()
		if kept := db.Prune(root, nil); kept != len(want) {
			t.Fatalf("round %d: Prune kept %d nodes, %d reachable", round, kept, len(want))
		}
		if db.Len() > before {
			t.Fatalf("round %d: Prune grew the store", round)
		}
		for h := range want {
			if _, ok := db.Node(h); !ok {
				t.Fatalf("round %d: reachable node %x pruned", round, h)
			}
		}
		re, err := FromRoot(db, root)
		if err != nil {
			t.Fatal(err)
		}
		if got := re.Hash(); got != root {
			t.Fatalf("round %d: reloaded root %x, want %x", round, got, root)
		}
		for k, v := range model {
			if got := string(re.Get([]byte(k))); got != v {
				t.Fatalf("round %d: key %q = %q after prune, want %q", round, k, got, v)
			}
		}
		tr = re
	}
}

// TestPruneFollowsLeafRoots: a leaf that commits to a second trie keeps
// that trie alive, and CopyReachable hands back an independent store that
// survives pruning of the original.
func TestPruneFollowsLeafRoots(t *testing.T) {
	db := NewDatabase()
	inner := New(db)
	for i := 0; i < 50; i++ {
		inner.Update([]byte(fmt.Sprintf("slot-%02d", i)), []byte(fmt.Sprintf("value-%02d-%032d", i, i)))
	}
	innerRoot := inner.Hash()
	outer := New(db)
	for i := 0; i < 20; i++ {
		outer.Update([]byte(fmt.Sprintf("acct-%02d", i)), append([]byte("ptr:"), innerRoot[:]...))
	}
	outerRoot := outer.Hash()
	leafRoot := func(v []byte) (types.Hash, bool) {
		if len(v) != 36 || string(v[:4]) != "ptr:" {
			return types.Hash{}, false
		}
		return types.BytesToHash(v[4:]), true
	}
	// Garbage that nothing reaches.
	junk := New(db)
	for i := 0; i < 30; i++ {
		junk.Update([]byte(fmt.Sprintf("junk-%02d", i)), []byte(fmt.Sprintf("%040d", i)))
	}
	junk.Hash()

	cp := db.CopyReachable(outerRoot, leafRoot)
	want := len(reachableByDecode(t, db, outerRoot)) + len(reachableByDecode(t, db, innerRoot))
	if kept := db.Prune(outerRoot, leafRoot); kept != want {
		t.Fatalf("Prune kept %d nodes, want %d (outer + inner)", kept, want)
	}
	if cp.Len() != want {
		t.Fatalf("CopyReachable holds %d nodes, want %d", cp.Len(), want)
	}
	for _, store := range []*Database{db, cp} {
		re, err := FromRoot(store, innerRoot)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(re.Get([]byte("slot-07"))); got != fmt.Sprintf("value-%02d-%032d", 7, 7) {
			t.Fatalf("inner trie lost a value: %q", got)
		}
	}
	// Pruning the original to nothing leaves the copy intact.
	db.Prune(EmptyRoot, nil)
	if db.Len() != 0 {
		t.Fatalf("store holds %d nodes after pruning to the empty root", db.Len())
	}
	if cp.Len() != want {
		t.Fatal("pruning the original changed its copy")
	}
}

package hub

import (
	"os"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// The hub suites that exercise chain flow control (crash harness,
// fraud-while-down, batch smoke) run under each mining policy: "auto"
// (the dev-chain block-per-transaction policy) and "batch" (AutoMine off,
// the background driver sealing many sessions' transactions per block).

// miningModes is the sweep a parameterized suite runs. The
// ONOFFCHAIN_TEST_MINING env var ("auto" or "batch") restricts it to one
// policy — the CI matrix uses that to give batch mining a dedicated leg
// without doubling the default leg.
func miningModes(tb testing.TB) []string {
	switch v := os.Getenv("ONOFFCHAIN_TEST_MINING"); v {
	case "":
		return []string{"auto", "batch"}
	case "auto", "batch":
		return []string{v}
	default:
		tb.Fatalf("ONOFFCHAIN_TEST_MINING=%q (want auto or batch)", v)
		return nil
	}
}

// Batch-mining parameters for tests: a short deadline keeps per-stage
// latency far under the whisper exchange timeout even on a starved CI
// worker, and the cap seals a full block early under heavy fleets.
const (
	testMineInterval = 500 * time.Microsecond
	testMineBatch    = 64
)

// miningWorld is durableWorld parameterized by mining policy. In batch
// mode the driver runs until the test (and every hub it started) is torn
// down — the chain is an external system that outlives any hub.
func miningWorld(tb testing.TB, mode string) (*chain.Chain, *whisper.Network, *secp256k1.PrivateKey) {
	tb.Helper()
	faucetKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE7))
	if err != nil {
		tb.Fatal(err)
	}
	ccfg := chain.DefaultConfig()
	if mode == "batch" {
		ccfg.AutoMine = false
	}
	c := chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(faucetKey.EthereumAddress()): new(uint256.Int).Mul(uint256.NewInt(100_000_000), uint256.NewInt(1e18)),
	})
	if mode == "batch" {
		if err := c.StartMining(testMineInterval, testMineBatch); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(c.StopMining)
	}
	return c, whisper.NewNetwork(c.Now), faucetKey
}

// TestHubBatchMining is the batch-mode smoke for the whole pipeline: a
// mixed honest/adversarial fleet on an AutoMine=off chain, every receipt
// resolved through WaitReceipt, many sessions' transactions sharing each
// block. Outcomes must match the AutoMine suites exactly, and the block
// count must show real amortization — far fewer blocks than the
// one-per-transaction policy would have minted.
func TestHubBatchMining(t *testing.T) {
	faucetKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE7))
	if err != nil {
		t.Fatal(err)
	}
	ccfg := chain.DefaultConfig()
	ccfg.AutoMine = false
	c := chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(faucetKey.EthereumAddress()): new(uint256.Int).Mul(uint256.NewInt(100_000_000), uint256.NewInt(1e18)),
	})
	// A deadline several times the inter-transaction gap, so blocks really do
	// aggregate the concurrent workers' submissions (the point under test);
	// the crash suites use a much shorter deadline because they test
	// liveness, not amortization.
	if err := c.StartMining(25*time.Millisecond, testMineBatch); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopMining)
	net := whisper.NewNetwork(c.Now)
	h := New(c, net, faucetKey, Config{Workers: 16})
	defer h.Stop()

	n := 30
	specs := make([]*Spec, n)
	for i := range specs {
		switch {
		case i%10 == 0:
			specs[i] = BettingSpec(4, 600, true)
		case i%3 == 0:
			specs[i] = AuctionSpec(600, false)
		default:
			specs[i] = BettingSpec(4, 600, false)
		}
	}
	adversarial := 0
	for _, s := range specs {
		if s.Adversarial {
			adversarial++
		}
	}
	reports := h.Run(specs)
	for i, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("session %d (%s) failed: %v", i, rep.Scenario, rep.Err)
		}
		want := StageSettled
		if specs[i].Adversarial {
			want = StageResolved
		}
		if rep.Stage != want {
			t.Errorf("session %d: stage %s, want %s", i, rep.Stage, want)
		}
		requireWinnerPaid(t, rep)
	}
	m := h.Metrics()
	if int(m.SessionsCompleted) != n {
		t.Errorf("completed %d of %d", m.SessionsCompleted, n)
	}
	if int(m.DisputesRaised) != adversarial || int(m.DisputesWon) != adversarial {
		t.Errorf("disputes raised/won = %d/%d, want %d/%d", m.DisputesRaised, m.DisputesWon, adversarial, adversarial)
	}
	// Each session needs roughly 8–10 transactions (funding, deploy,
	// deposits, submit, settle) plus dispute traffic; AutoMine would mint
	// a block for every one of them. Batch mining must do much better
	// than half of that, whatever the scheduling.
	txs := 0
	for bn := uint64(1); bn <= c.Height(); bn++ {
		b, err := c.BlockByNumber(bn)
		if err != nil {
			t.Fatal(err)
		}
		txs += len(b.Transactions)
	}
	if blocks := int(c.Height()); blocks*2 >= txs {
		t.Errorf("batch mining minted %d blocks for %d transactions — no amortization", blocks, txs)
	} else {
		t.Logf("batch mining: %d sessions, %d transactions in %d blocks (%.1f txs/block)",
			n, txs, blocks, float64(txs)/float64(blocks))
	}
}

// TestHubKillUnblocksReceiptWaiters pins the crash/receipt interaction
// unique to batch mining: a worker parked in WaitReceipt when Kill lands
// must abandon its session as crashed — promptly, without a terminal WAL
// record, and without misclassifying the canceled wait as a session
// failure.
func TestHubKillUnblocksReceiptWaiters(t *testing.T) {
	c, net, faucetKey := miningWorld(t, "batch")
	var h *Hub
	killed := make(chan struct{})
	h = New(c, net, faucetKey, Config{Workers: 1, StageHook: func(sid uint64, s Stage) bool {
		// Kill mid-lifecycle, from the hook, while later stages still have
		// receipt waits ahead of them.
		if s == StageDeployed {
			h.Kill()
			close(killed)
		}
		return !h.Crashed()
	}})
	defer h.Stop()
	rep := h.Submit(BettingSpec(4, 600, false)).Report()
	<-killed
	if rep.Err == nil || rep.Stage == StageFailed {
		t.Fatalf("killed session: stage=%s err=%v, want a crash abandonment", rep.Stage, rep.Err)
	}
}

package main

import (
	"fmt"
	"math/rand/v2"

	"onoffchain/internal/hub"
)

// challengePeriod is every scenario's submit/challenge window in chain
// seconds, the value the fleet benchmarks and examples use.
const challengePeriod = 600

// scenario pairs the honest and the lying variant of one contract, so the
// generator can pick either without building specs per session (a Spec is
// immutable and may be submitted any number of times).
type scenario struct {
	honest, lying *hub.Spec
}

func newScenario(mk func(adversarial bool) *hub.Spec) scenario {
	return scenario{honest: mk(false), lying: mk(true)}
}

func betting() scenario {
	return newScenario(func(adv bool) *hub.Spec { return hub.BettingSpec(4, challengePeriod, adv) })
}

// workload is one fleet configuration the benchmark can run. The fields
// are the only knobs that differ between workloads; everything else (64
// sessions in flight, 64 hub workers, the faucet) is shared.
type workload struct {
	name string
	why  string
	// scenarios rotate in seeded blocks of len(scenarios): each block is a
	// permutation of all of them.
	scenarios []scenario
	// lieEvery: in each block of lieEvery consecutive sessions exactly one,
	// at a seeded position, lies.
	lieEvery int
	batch    bool // batch mining instead of AutoMine
	rollup   bool // Merkle-batched settlement instead of per-session
	wal      bool // durable hub WAL via store.Open
	towers   int  // 1: the hub's own tower; >1: a signed-gossip federation
}

// Batch-mining and rollup parameters, the same as the repository's fleet
// benchmark: a 60 ms sealing deadline, a 512-transaction cap, and epochs
// of up to 256 leaves sealed one mining deadline after their first leaf.
const (
	mineIntervalMS = 60
	mineBatch      = 512
	rollupDepth    = 8
)

var workloads = []*workload{
	{
		name:      "auto-persession",
		why:       "AutoMine betting fleet, 1 lie in 10: CPU-bound crypto, vm, state/trie and inline mining; no store, rollup or federation",
		scenarios: []scenario{betting()},
		lieEvery:  10,
		towers:    1,
	},
	{
		name:      "batch-rollup-wal",
		why:       "batch mining, rollup epochs and a WAL: latency-bound on block and epoch waits; the only workload that writes the store",
		scenarios: []scenario{betting()},
		lieEvery:  10,
		batch:     true,
		rollup:    true,
		wal:       true,
		towers:    1,
	},
	{
		name: "federated-disputes",
		why:  "four scenarios, every other session lies, 3 signed-gossip towers: the dispute path, re-verification and adoption dominate",
		scenarios: []scenario{
			betting(),
			newScenario(func(adv bool) *hub.Spec { return hub.PoolSpec(4, challengePeriod, adv) }),
			newScenario(func(adv bool) *hub.Spec { return hub.LotterySpec(4, 16, challengePeriod, adv) }),
			newScenario(func(adv bool) *hub.Spec { return hub.AuctionSpec(challengePeriod, adv) }),
		},
		lieEvery: 2,
		towers:   3,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// specs generates the first n sessions of the workload's stream for seed.
// The seed alone decides the scenario order and which sessions lie; the
// hub receives only the returned list.
func (w *workload) specs(seed uint64, n int) []*hub.Spec {
	rng := rand.New(rand.NewPCG(seed, 0x6f6e6f6666636861))
	out := make([]*hub.Spec, n)
	var order []int
	liar := 0
	for i := range out {
		if i%len(w.scenarios) == 0 {
			order = rng.Perm(len(w.scenarios))
		}
		if i%w.lieEvery == 0 {
			liar = rng.IntN(w.lieEvery)
		}
		sc := w.scenarios[order[i%len(w.scenarios)]]
		if i%w.lieEvery == liar {
			out[i] = sc.lying
		} else {
			out[i] = sc.honest
		}
	}
	return out
}

// registry resolves every spec the workload can submit, for federated
// towers rebuilding a peer's session.
func (w *workload) registry() hub.SpecRegistry {
	var specs []*hub.Spec
	for _, sc := range w.scenarios {
		specs = append(specs, sc.honest, sc.lying)
	}
	return hub.NewSpecRegistry(specs...)
}

package noc_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/snapshot"
	"repro/internal/traffic"
)

// The VC router's allocators are pinned by value, not by comparison
// against another sweep: gated and exhaustive runs call the same phase
// functions, so an allocator change shows up identically in both. Each
// case below drives a standalone network past saturation under
// internal/traffic load and compares three digests against values
// recorded from the reference allocator: the deliveries, every
// router's activity counters, and a mid-run checkpoint. Adaptive
// routing, VC sets, concentration, multi-word occupancy sets (96 input
// VCs per router) and single-stage routers each get a case, and every
// case runs on one shard and on four.

// pinnedRun is the recorded outcome of one pinned case.
type pinnedRun struct {
	delivered int
	latSum    uint64 // sum of TotalLatency over deliveries
	hops      uint64 // sum of Hops over deliveries
	counters  string // SHA-256 of per-router outFlits, arbGrants, bufWrites
	mid       string // SHA-256 of the mid-run SnapshotTo bytes
}

type pinnedCase struct {
	name  string
	build func() (noc.Config, topology.Topology, topology.Routing)
	want  pinnedRun
}

const (
	pinnedRate   = 0.4 // packets/cycle/terminal: past saturation on every case
	pinnedLoad   = 600 // cycles of injection
	pinnedDrain  = 100 // cycles after injection stops; the run ends with packets in flight
	pinnedMidCyc = 300 // cycle of the mid-run checkpoint
)

func meshCase(conc int, tweak func(*noc.Config), routing func(*topology.Mesh) topology.Routing) func() (noc.Config, topology.Topology, topology.Routing) {
	return func() (noc.Config, topology.Topology, topology.Routing) {
		cfg := noc.DefaultConfig()
		if tweak != nil {
			tweak(&cfg)
		}
		m := topology.NewMesh(4, 4, conc)
		return cfg, m, routing(m)
	}
}

func xy(m *topology.Mesh) topology.Routing { return topology.NewXY(m) }

var pinnedCases = []pinnedCase{
	{name: "mesh-xy", build: meshCase(1, nil, xy),
		want: pinnedRun{2354, 378835, 8684,
			"0e4882d60f77e9f004fc3682b0473acf4fdd5d81fc579048dddb4885ebd4d973",
			"04b3d909ba6a428342b81b4a9e01ca854e8b0bb10ed18775ccf106bb0c6b94c2"},
	},
	{name: "mesh-oddeven", build: meshCase(1, nil, func(m *topology.Mesh) topology.Routing { return topology.NewOddEven(m) }),
		want: pinnedRun{2273, 377959, 8454,
			"66f3c083ba3e38cf6d500865dc422e2fc0ea4e3b2861e51dc82bc122812eabd3",
			"6b71b944489de3952e6afb902e70de0a2a9833661ef7bc7c3e06c47cff88271c"},
	},
	{name: "torus-dor", build: func() (noc.Config, topology.Topology, topology.Routing) {
		tt := topology.NewTorus(4, 4, 1)
		return noc.DefaultConfig(), tt, topology.NewTorusDOR(tt)
	},
		want: pinnedRun{2350, 387601, 7266,
			"f30589b2a96830405abb7acab49d68fc76333ee6bd42624105c7f20c94550ccc",
			"f771be63918ab0adc875681d0f707c27b7aa72ca0f9dd5a7f007ed398764d6a2"},
	},
	{name: "mesh-c4", build: meshCase(4, nil, xy),
		want: pinnedRun{2795, 788365, 9657,
			"70cd44da7890007bb41cba0e9238ea1493dffaa5b85027f1bd9b2adda50e3b72",
			"b107b78776194d59c24b4accc33f656789113f23bfa9b592363a409b3271d5a7"},
	},
	{name: "mesh-c4-vc4", build: meshCase(4, func(c *noc.Config) { c.VCsPerVNet = 4 }, xy),
		want: pinnedRun{3050, 862271, 10693,
			"27e1c20186c316f9aaf90ae373fd35698c7103edcef3ce8ad208cbb4af04bdb3",
			"36cf630b6907142c1b9f64771710fac876a93d02063ef810dcd1fdb595f7d47c"},
	},
	{name: "mesh-1stage", build: meshCase(1, func(c *noc.Config) { c.RouterStages = 1 }, xy),
		want: pinnedRun{2349, 361944, 8717,
			"a841daac174d16bfd3e8bf525ea09d79e5efa67d018d9c02fb2521def0d83294",
			"e2b18c8c047d4c0b3fe45ecfa549ccdd8d9de09ce30b3745e90a580de128a3ec"},
	},
}

// runPinned drives one pinned case and digests its outcome.
func runPinned(t *testing.T, pc pinnedCase, workers int) pinnedRun {
	t.Helper()
	cfg, topo, routing := pc.build()
	n, err := noc.New(cfg, topo, routing, noc.WithWorkers(workers))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer n.Close()
	gen := &traffic.Generator{Pattern: traffic.Uniform{}, Rate: pinnedRate, Seed: 13}
	var got pinnedRun
	for c := 0; c < pinnedLoad+pinnedDrain; c++ {
		if c == pinnedMidCyc {
			e := snapshot.NewEncoder(1)
			n.SnapshotTo(e, nil)
			sum := sha256.Sum256(e.Finish())
			got.mid = hex.EncodeToString(sum[:])
		}
		if c < pinnedLoad {
			gen.Tick(n, n.Cycle())
		}
		n.Step()
		for _, p := range n.Drain() {
			got.delivered++
			got.latSum += uint64(p.TotalLatency())
			got.hops += uint64(p.Hops)
		}
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for r := 0; r < topo.NumRouters(); r++ {
		outFlits, arbGrants, bufWrites := noc.RouterCounters(n, r)
		for _, f := range outFlits {
			put(f)
		}
		put(arbGrants)
		put(bufWrites)
	}
	got.counters = hex.EncodeToString(h.Sum(nil))
	return got
}

// TestRouterAllocPinned checks every pinned case, at one and four
// workers, against the recorded reference outcome.
func TestRouterAllocPinned(t *testing.T) {
	for _, pc := range pinnedCases {
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", pc.name, w), func(t *testing.T) {
				got := runPinned(t, pc, w)
				if got != pc.want {
					t.Errorf("outcome diverged from the reference allocator\n got: %#v\nwant: %#v", got, pc.want)
				}
			})
		}
	}
}

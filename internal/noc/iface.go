package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Iface is a terminal's network interface: per-virtual-network
// injection queues, the flit serializer that feeds the attached
// router's local input port, and the delivery buffer the client drains.
type Iface struct {
	terminal  int
	router    int
	localPort int

	queues [][]*Packet // per vnet, time-ordered by CreatedAt
	qHead  []int       // consumed prefix per queue
	rr     int         // round-robin pointer over vnets

	cur    *Packet // packet currently being serialized, or nil
	curSeq int32
	curVC  int16

	credits    []int32 // per VC of the router's local input port
	creditRing *link   // credit-return staging (flit side unused)

	deliveries []*Packet // tail-ejected packets, DeliveredAt ascending
	dHead      int

	injectedPkts  uint64
	injectedFlits uint64
}

func newIface(terminal, router, localPort int, cfg Config) Iface {
	credits := make([]int32, cfg.TotalVCs())
	for i := range credits {
		credits[i] = int32(cfg.BufDepth)
	}
	return Iface{
		terminal:   terminal,
		router:     router,
		localPort:  localPort,
		queues:     make([][]*Packet, cfg.VNets),
		qHead:      make([]int, cfg.VNets),
		credits:    credits,
		creditRing: newLink(1, cfg.CreditLatency),
	}
}

// enqueue appends a packet to its virtual network's injection queue.
// Packets must be enqueued in nondecreasing CreatedAt order per vnet.
func (ni *Iface) enqueue(p *Packet) {
	q := ni.queues[p.VNet]
	if n := len(q); n > ni.qHead[p.VNet] && q[n-1].CreatedAt > p.CreatedAt {
		panic(fmt.Sprintf("noc: out-of-order injection at terminal %d (%v after %v)",
			ni.terminal, p.CreatedAt, q[n-1].CreatedAt))
	}
	ni.queues[p.VNet] = append(q, p)
}

// pending reports queued-but-not-yet-serialized packets, regardless of
// their creation time.
func (ni *Iface) pending() int {
	n := 0
	for v := range ni.queues {
		n += len(ni.queues[v]) - ni.qHead[v]
	}
	return n
}

// tryInject advances the serializer by at most one flit: it starts the
// next eligible packet if idle, then pushes one flit into the router's
// local input port if a credit is available.
func (ni *Iface) tryInject(n *Network, rt *router, now sim.Cycle) {
	if ni.cur == nil {
		ni.selectNext(n, now)
	}
	if ni.cur == nil {
		return
	}
	if ni.credits[ni.curVC] <= 0 {
		return
	}
	i := ni.localPort*n.cfg.TotalVCs() + int(ni.curVC)
	rt.in[i].buf.push(flitEntry{
		pkt:   ni.cur,
		seq:   ni.curSeq,
		ready: now + sim.Cycle(n.cfg.RouterStages-1),
	})
	rt.occ.add(i)
	rt.bufWrites++
	ni.credits[ni.curVC]--
	ni.injectedFlits++
	ni.curSeq++
	if int(ni.curSeq) == ni.cur.Size {
		ni.cur = nil
	}
}

// selectNext picks the next packet to serialize: round-robin over
// virtual networks with an eligible (CreatedAt <= now) head packet and
// a creditable VC in the vnet's set-0 range. The head flit stamps
// InjectedAt when selected.
func (ni *Iface) selectNext(n *Network, now sim.Cycle) {
	for k := 0; k < len(ni.queues); k++ {
		v := (ni.rr + k) % len(ni.queues)
		if ni.qHead[v] >= len(ni.queues[v]) {
			ni.compact(v)
			continue
		}
		p := ni.queues[v][ni.qHead[v]]
		if p.CreatedAt > now {
			continue
		}
		vc, ok := ni.bestVC(n, v)
		if !ok {
			continue
		}
		ni.qHead[v]++
		ni.rr = (v + 1) % len(ni.queues)
		ni.cur = p
		ni.curSeq = 0
		ni.curVC = vc
		ni.injectedPkts++
		p.InjectedAt = now
		return
	}
}

// bestVC returns the VC with the most credits in vnet's set-0 range.
func (ni *Iface) bestVC(n *Network, vnet int) (int16, bool) {
	lo := vnet * n.cfg.VCsPerVNet
	best, bestCredits := -1, int32(0)
	for k := 0; k < n.vcsPerSet; k++ {
		if c := ni.credits[lo+k]; c > bestCredits {
			bestCredits = c
			best = lo + k
		}
	}
	if best < 0 {
		return 0, false
	}
	return int16(best), true
}

// compact reclaims a fully-consumed queue's storage.
func (ni *Iface) compact(v int) {
	if ni.qHead[v] > 0 && ni.qHead[v] == len(ni.queues[v]) {
		ni.queues[v] = ni.queues[v][:0]
		ni.qHead[v] = 0
	}
}

// drainInto appends deliveries due at or before cycle `now` to out and
// returns the extended slice.
func (ni *Iface) drainInto(out []*Packet, now sim.Cycle) []*Packet {
	for ni.dHead < len(ni.deliveries) && ni.deliveries[ni.dHead].DeliveredAt <= now {
		out = append(out, ni.deliveries[ni.dHead])
		ni.deliveries[ni.dHead] = nil
		ni.dHead++
	}
	if ni.dHead == len(ni.deliveries) && ni.dHead > 0 {
		ni.deliveries = ni.deliveries[:0]
		ni.dHead = 0
	}
	return out
}

// idle reports whether the NI has no queued packets (eligible or not)
// and no packet in serialization.
func (ni *Iface) idle() bool { return ni.cur == nil && ni.pending() == 0 }

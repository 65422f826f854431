package noc

// RouterCounters exposes router r's per-output-port flit counts and
// its arbitration-grant and buffer-write totals to the external test
// package (which may import internal/traffic without an import cycle).
func RouterCounters(n *Network, r int) (outFlits []uint64, arbGrants, bufWrites uint64) {
	rt := &n.routers[r]
	return rt.outFlits, rt.arbGrants, rt.bufWrites
}

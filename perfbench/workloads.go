package main

import "repro"

// The four workloads each put a different layer on the critical path;
// README.md gives the reasons and the layer metric each should move.
var (
	// nocBound: the cycle-level VC-router NoC takes ~90% of the CPU.
	nocBound = simWorkload{tiles: 256, kernel: "radix",
		mode: repro.ModeReciprocal, mem: "fixed", ops: 60}
	// calibDDR: ~200k quanta of per-quantum coupling, calibration
	// refits and the detailed DRAM oracle; the only workload whose
	// accuracy figure is the calibrated model's.
	calibDDR = simWorkload{tiles: 64, kernel: "fft",
		mode: repro.ModeCalibrated, mem: "ddr", ops: 200}
	// sysBound: cores, caches and DRAM; the cycle-level NoC never
	// runs, so it is the control for every NoC change.
	sysBound = simWorkload{tiles: 256, kernel: "water",
		mode: repro.ModeAbstract, mem: "ddr", ops: 300}
	// serveSweep: cosimd's scheduler, eviction tiers and result cache.
	serveSweep = sweepWorkload{workers: 2, maxResident: 4, tenants: 4,
		tiles: 16, ops: 250,
		kernels: []string{"fft", "radix", "canneal"},
		modes:   []string{"reciprocal", "calibrated", "hybrid"},
		seeds:   4}
)

package core

import (
	"testing"

	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/memmodel"
	"perfiso/internal/netmodel"
	"perfiso/internal/osmodel"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// testNode is the shared single-machine fixture for core tests: a
// 48-core machine with SSD/HDD volumes, memory, and a NIC.
type testNode struct {
	eng *sim.Engine
	cpu *cpumodel.Machine
	os  *osmodel.OS
	ssd *diskmodel.Volume
	hdd *diskmodel.Volume
	mem *memmodel.Tracker
}

func newTestNode(t testing.TB) *testNode {
	t.Helper()
	eng := sim.NewEngine()
	cpu := cpumodel.New(eng, sim.NewRNG(11), cpumodel.DefaultConfig())
	ssd := diskmodel.NewVolume(eng, diskmodel.SSDStripeConfig())
	hdd := diskmodel.NewVolume(eng, diskmodel.HDDStripeConfig())
	mem := memmodel.NewTracker(memmodel.Standard128GB)
	nic := netmodel.NewNIC(eng, netmodel.TenGbE())
	os := osmodel.New(eng, cpu, []*diskmodel.Volume{ssd, hdd}, mem, nic)
	return &testNode{eng: eng, cpu: cpu, os: os, ssd: ssd, hdd: hdd, mem: mem}
}

// startBully launches an n-thread CPU bully and returns its process.
func (n *testNode) startBully(threads int) *workload.CPUBully {
	b := workload.NewCPUBully(n.cpu, "bully", threads)
	b.Start()
	return b
}

// spawnPrimaryBurst wakes k primary threads of the given burst length.
func (n *testNode) spawnPrimaryBurst(p *cpumodel.Process, k int, burst sim.Duration) {
	all := cpumodel.AllCores(n.cpu.Cores())
	for i := 0; i < k; i++ {
		n.cpu.Spawn(p, burst, all, nil)
	}
}

func (n *testNode) newPrimary(name string) *cpumodel.Process {
	return n.cpu.NewProcess(name, stats.ClassPrimary)
}

func (n *testNode) runFor(d sim.Duration) { n.eng.Run(n.eng.Now().Add(d)) }

// Package perfiso is a faithful reimplementation of PerfIso — the
// performance-isolation framework Microsoft Bing uses to colocate batch
// jobs with latency-sensitive services (Iorgulescu et al., USENIX ATC
// 2018) — together with the complete simulated testbed the paper's
// evaluation ran on.
//
// The paper's contribution is CPU blind isolation: a non-work-
// conserving, user-mode controller that polls the OS idle-core bitmask
// in a tight loop and dynamically restricts the CPU affinity of
// secondary (batch) tenants so the primary always keeps a buffer of
// idle cores to absorb microsecond-scale thread-wakeup bursts. The
// framework also throttles secondary disk I/O with deficit-weighted
// round-robin, guards memory with kill-on-pressure, and deprioritizes
// secondary egress traffic — all while treating the primary service and
// the OS as black boxes.
//
// This package is the public facade. It exposes:
//
//   - the controller and its governors (Controller, Config,
//     BlindIsolation, Command) — the PerfIso service itself;
//   - the isolation policies the paper compares against
//     (PolicyStaticCores, PolicyCycleCap, PolicyBlind, PolicyNone);
//   - the simulated testbed: a deterministic discrete-event engine
//     (NewEngine), a 48-core production server (NewNode), the
//     75-machine cluster of §5.3 (NewCluster), and the 650-machine
//     production fluid model (RunProduction);
//   - the experiment registry behind every figure of the evaluation
//     (DefaultExperimentRegistry, RunExperiments), the same one
//     cmd/perfiso-repro runs.
//
// The quickstart in examples/quickstart shows the core loop in ~40
// lines: build a node, start a CPU bully, wrap it in a controller, and
// watch tail latency stay put while utilization triples.
package perfiso

import (
	"io"

	"perfiso/internal/core"
	"perfiso/internal/cpumodel"
	"perfiso/internal/isolation"
	"perfiso/internal/netmodel"
	"perfiso/internal/node"
	"perfiso/internal/osmodel"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// Controller is the PerfIso user-mode service: CPU blind isolation,
// DWRR I/O throttling, the memory guard, and egress deprioritization
// over one machine's secondary tenants (§4).
type Controller = core.Controller

// Config is PerfIso's cluster-wide configuration file (§4).
type Config = core.Config

// IOVolumeConfig configures the DWRR I/O throttler for one volume.
type IOVolumeConfig = core.IOVolumeConfig

// IOProcConfig is one process's DWRR weight and limits.
type IOProcConfig = core.IOProcConfig

// Command is a runtime limit-altering request to a live controller.
type Command = core.Command

// BlindIsolation is the CPU governor (§3.1).
type BlindIsolation = core.BlindIsolation

// DefaultConfig returns the production defaults: 8 buffer cores and a
// 100 µs polling loop.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewController assembles a PerfIso controller over a node's OS facade.
// Call Start to engage the governors, ManageSecondary to place batch
// processes under control, and Disable for the kill switch.
func NewController(os *OS, cfg Config) (*Controller, error) {
	return core.NewController(os, cfg)
}

// Engine is the deterministic discrete-event simulator every model
// component runs on. All experiments are bit-for-bit reproducible from
// their seeds.
type Engine = sim.Engine

// Time is virtual nanoseconds since simulation start.
type Time = sim.Time

// Duration is a span of virtual time in nanoseconds.
type Duration = sim.Duration

// Re-exported duration units for configuring the simulation.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Hour        = sim.Hour
)

// NewEngine returns an empty simulation engine at time zero.
func NewEngine() *Engine { return sim.NewEngine() }

// Node is one simulated production server: 48 logical cores, striped
// SSD and HDD volumes, 128 GB RAM, a 10 GbE NIC, an OS facade, and the
// IndexServe-style primary (§5.2).
type Node = node.Node

// NodeConfig assembles a Node.
type NodeConfig = node.Config

// OS is the black-box monitoring and control surface PerfIso polls:
// idle-core mask, job objects, per-process I/O statistics, memory.
type OS = osmodel.OS

// Job is a group of processes controlled as a unit (a Windows Job
// Object).
type Job = osmodel.Job

// Process is a simulated OS process on a node's CPU.
type Process = cpumodel.Process

// CPUSet is a core bitmask (affinity masks, the idle-core mask).
type CPUSet = cpumodel.CPUSet

// DefaultNodeConfig mirrors the evaluation hardware with the calibrated
// IndexServe profile (standalone P50 ≈ 4 ms, P99 ≈ 12 ms).
func DefaultNodeConfig() NodeConfig { return node.DefaultConfig() }

// NewNode assembles a server on eng.
func NewNode(eng *Engine, cfg NodeConfig) *Node { return node.New(eng, cfg) }

// Policy restricts a secondary job for the duration of an experiment.
type Policy = isolation.Policy

// PolicyNone is the no-isolation baseline.
func PolicyNone() Policy { return isolation.None{} }

// PolicyStaticCores statically restricts the secondary to n cores
// (§6.1.4).
func PolicyStaticCores(n int) Policy { return isolation.StaticCores{Cores: n} }

// PolicyCycleCap statically restricts the secondary to a fraction of
// CPU cycles (§6.1.4).
func PolicyCycleCap(fraction float64) Policy { return isolation.CycleCap{Fraction: fraction} }

// PolicyBlind runs CPU blind isolation with the given buffer (§3.1);
// buffer 0 selects the published default of 8.
func PolicyBlind(buffer int) Policy { return &isolation.Blind{BufferCores: buffer} }

// LatencySummary reports count, mean and tail percentiles in
// milliseconds.
type LatencySummary = stats.LatencySummary

// Breakdown is a CPU utilization split: primary / secondary / OS / idle.
type Breakdown = stats.Breakdown

// Histogram is a log-bucketed latency histogram.
type Histogram = stats.Histogram

// CPUBully is the paper's CPU-intensive micro-benchmark secondary: a
// multi-threaded integer-summing program that occupies every cycle the
// system permits (§5.3).
type CPUBully = workload.CPUBully

// DiskBully is the DiskSPD-style I/O generator: 33% read / 67% write,
// sequential, synchronous 8 KB operations (§5.3).
type DiskBully = workload.DiskBully

// DiskBullyConfig parameterizes the disk bully.
type DiskBullyConfig = workload.DiskBullyConfig

// QuerySpec is one query of a trace.
type QuerySpec = workload.QuerySpec

// TraceConfig parameterizes trace generation.
type TraceConfig = workload.TraceConfig

// NewCPUBully builds a CPU bully with the given worker-thread count on
// a node's machine; call Start to launch it and Progress to read its
// absolute work done.
func NewCPUBully(n *Node, threads int) *CPUBully {
	return workload.NewCPUBully(n.CPU, "cpu-bully", threads)
}

// NewDiskBully builds a disk bully against the node's HDD stripe.
func NewDiskBully(n *Node, cfg DiskBullyConfig) *DiskBully {
	return workload.NewDiskBully(n.HDD, cfg)
}

// DefaultDiskBullyConfig mirrors §5.3's DiskSPD setup.
func DefaultDiskBullyConfig() DiskBullyConfig { return workload.DefaultDiskBullyConfig() }

// GenerateTrace produces a Poisson open-loop arrival trace.
func GenerateTrace(cfg TraceConfig) []QuerySpec { return workload.GenerateTrace(cfg) }

// CPU accounting classes for processes created directly on a node's
// machine.
const (
	ClassPrimary   = stats.ClassPrimary
	ClassSecondary = stats.ClassSecondary
	ClassOS        = stats.ClassOS
)

// HDFS is the composite storage tenant of the cluster experiments
// (§5.3): a client I/O flow, replication ingest with low-priority
// egress, and a small CPU share.
type HDFS = workload.HDFS

// HDFSConfig parameterizes the HDFS tenant.
type HDFSConfig = workload.HDFSConfig

// DefaultHDFSConfig mirrors the §5.3 cluster setup.
func DefaultHDFSConfig() HDFSConfig { return workload.DefaultHDFSConfig() }

// NewHDFS builds the HDFS tenant on a node's HDD stripe, NIC and CPU.
func NewHDFS(n *Node, cfg HDFSConfig) *HDFS {
	return workload.NewHDFS(n.Eng, n.HDD, n.NIC, n.CPU, cfg)
}

// NetFlow is an open-loop egress traffic generator.
type NetFlow = workload.NetFlow

// NetFlowConfig parameterizes a NetFlow.
type NetFlowConfig = workload.NetFlowConfig

// NewNetFlow builds an egress flow against the node's NIC.
func NewNetFlow(n *Node, cfg NetFlowConfig) *NetFlow {
	return workload.NewNetFlow(n.Eng, n.NIC, cfg)
}

// WriteTrace serializes a trace in the binary trace-file format.
func WriteTrace(w io.Writer, trace []QuerySpec) error { return workload.WriteTrace(w, trace) }

// ReadTrace deserializes a binary trace file.
func ReadTrace(r io.Reader) ([]QuerySpec, error) { return workload.ReadTrace(r) }

// NIC egress priority classes.
const (
	PriorityHigh = netmodel.PriorityHigh
	PriorityLow  = netmodel.PriorityLow
)

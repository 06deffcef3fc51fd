// Package perfiso is a reproduction of PerfIso, the performance-
// isolation framework Microsoft Bing uses to colocate batch jobs with
// latency-sensitive services (Iorgulescu et al., USENIX ATC 2018),
// together with the simulated testbed the paper's evaluation ran on.
//
// The paper's contribution is CPU blind isolation: a user-mode
// controller that polls the OS idle-core mask and restricts the CPU
// affinity of secondary (batch) tenants so that the primary always
// keeps a buffer of idle cores. PerfIso also throttles secondary disk
// I/O, guards memory and deprioritizes secondary egress, treating the
// primary service and the OS as black boxes.
//
// The code lives under internal/: the deterministic discrete-event
// engine, the hardware and OS models, the controller (internal/core),
// the cluster and harvest scheduler, and the experiment registry
// (internal/experiments) behind every figure of the evaluation. The
// programs are cmd/perfiso-repro, which runs the registry and writes
// results/ and RESULTS.md, cmd/perfiso-lint, the determinism linter,
// and the narrated tours under examples/. This package holds no code:
// its tests check the committed artifacts end to end, and its
// benchmarks time whole reproductions.
package perfiso

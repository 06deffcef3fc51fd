package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"perfiso/internal/core"
	"perfiso/internal/node"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// ctlCmd is the local debugging client of §4: it drives a live PerfIso
// controller with runtime commands while a colocation scenario runs,
// and reports the effect of each command on tail latency and the CPU
// split.
//
// The scenario is the standard single-machine colocation (IndexServe
// at -qps with a 48-thread CPU bully under blind isolation). Commands
// come from a script file: one per line, `<seconds> <json-command>`,
// e.g.
//
//	2.5  {"op":"set-buffer","value":4}
//	5    {"op":"disable"}
//	7    {"op":"enable"}
func ctlCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfiso-repro ctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scriptPath := fs.String("script", "", "command script file (required)")
	qps := fs.Float64("qps", 2000, "primary query rate")
	seconds := fs.Float64("seconds", 10, "scenario length in virtual seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scriptPath == "" {
		fmt.Fprintln(stderr, "perfiso-repro: ctl needs -script FILE")
		return 2
	}
	f, err := os.Open(*scriptPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 1
	}
	script, err := core.ParseScript(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 1
	}

	eng := sim.NewEngine()
	n := node.New(eng, node.DefaultConfig())
	bully := workload.NewCPUBully(n.CPU, "bully", 48)
	bully.Start()
	ctrl, err := core.NewController(n.OS, core.DefaultConfig())
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 1
	}
	ctrl.ManageSecondary(bully.Proc)
	ctrl.Start()

	script.Schedule(ctrl, func(tc core.TimedCommand, err error) {
		status := "ok"
		if err != nil {
			status = err.Error()
		}
		fmt.Fprintf(stdout, "[%8.3fs] apply %-18s value=%-8g → %s   (idle=%d, buffer=%d)\n",
			eng.Now().Seconds(), tc.Command.Op, tc.Command.Value, status,
			n.OS.IdleCores(), ctrl.Blind.Buffer())
	})

	queries := int(*qps * *seconds)
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: queries, Rate: *qps, Seed: 7})
	n.ReplayTrace(trace, queries/10)
	eng.Run(sim.Time(sim.Duration(*seconds * float64(sim.Second))).Add(sim.Duration(2) * sim.Second))

	fmt.Fprintf(stdout, "\nfinal: %v\n", n.Server.Latency.Summary())
	fmt.Fprintf(stdout, "cpu:   %v\n", n.CPU.Breakdown())
	fmt.Fprintf(stdout, "blind: %d polls, %d shrinks, %d grows\n",
		ctrl.Blind.Polls, ctrl.Blind.Shrinks, ctrl.Blind.Grows)
	return 0
}

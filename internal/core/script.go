package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"perfiso/internal/sim"
)

// TimedCommand is one entry of a command script: a runtime command
// applied at a virtual-time offset. Scripts model the paper's local
// client application, which operators use to alter limits or throw the
// kill switch on a live PerfIso instance (§4).
type TimedCommand struct {
	// At is the offset from script start.
	At sim.Duration `json:"at_ns"`
	// Command is the request to apply.
	Command Command `json:"command"`
}

// Script is an ordered list of timed commands.
type Script []TimedCommand

// ParseScript reads a script in the client's line format: one entry per
// line, `<seconds> <json-command>`, with blank lines and #-comments
// ignored. Example:
//
//	# shrink the buffer mid-run, then throw the kill switch
//	2.5  {"op":"set-buffer","value":4}
//	10   {"op":"disable"}
func ParseScript(r io.Reader) (Script, error) {
	var out Script
	sc := bufio.NewScanner(r)
	lineNo := 0
	var prev sim.Duration
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("core: script line %d: want `<seconds> <json>`", lineNo)
		}
		var secs float64
		if _, err := fmt.Sscanf(fields[0], "%g", &secs); err != nil {
			return nil, fmt.Errorf("core: script line %d: bad time %q: %v", lineNo, fields[0], err)
		}
		// Check the value before converting it: Go leaves converting
		// NaN, an infinity or an out-of-range float to an integer to
		// the implementation.
		if math.IsNaN(secs) || math.IsInf(secs, 0) {
			return nil, fmt.Errorf("core: script line %d: time %q is not finite", lineNo, fields[0])
		}
		if secs < 0 {
			return nil, fmt.Errorf("core: script line %d: negative time", lineNo)
		}
		ns := secs * float64(sim.Second)
		if ns >= 1<<63 { // float64(math.MaxInt64) rounds up to 1<<63
			return nil, fmt.Errorf("core: script line %d: time %q is past the largest offset, about %.4g s",
				lineNo, fields[0], float64(math.MaxInt64)/float64(sim.Second))
		}
		at := sim.Duration(ns)
		if at < prev {
			return nil, fmt.Errorf("core: script line %d: time goes backwards", lineNo)
		}
		prev = at
		var cmd Command
		if err := json.Unmarshal([]byte(strings.TrimSpace(fields[1])), &cmd); err != nil {
			return nil, fmt.Errorf("core: script line %d: %v", lineNo, err)
		}
		out = append(out, TimedCommand{At: at, Command: cmd})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading script: %w", err)
	}
	return out, nil
}

// Schedule arms every script entry against a live controller on its
// engine. onApply (optional) observes each application and its error.
func (s Script) Schedule(c *Controller, onApply func(TimedCommand, error)) {
	eng := c.os.Engine()
	base := eng.Now()
	for _, tc := range s {
		tc := tc
		eng.At(base.Add(tc.At), func() {
			err := c.Apply(tc.Command)
			if onApply != nil {
				onApply(tc, err)
			}
		})
	}
}

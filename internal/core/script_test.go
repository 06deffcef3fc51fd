package core

import (
	"strings"
	"testing"

	"perfiso/internal/sim"
)

func TestParseScript(t *testing.T) {
	src := `
# operator script
0.5  {"op":"set-buffer","value":12}

2    {"op":"disable"}
2.5  {"op":"enable"}
`
	s, err := ParseScript(strings.NewReader(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(s) != 3 {
		t.Fatalf("entries = %d, want 3", len(s))
	}
	if s[0].At != 500*sim.Millisecond || s[0].Command.Op != "set-buffer" {
		t.Fatalf("entry 0 = %+v", s[0])
	}
	if s[2].At != 2500*sim.Millisecond || s[2].Command.Op != "enable" {
		t.Fatalf("entry 2 = %+v", s[2])
	}
}

func TestParseScriptRejections(t *testing.T) {
	cases := []struct{ name, src, err string }{
		{"missing json", "1.0", "want `<seconds> <json>`"},
		{"bad time", "abc {\"op\":\"disable\"}", "bad time"},
		{"negative time", "-1 {\"op\":\"disable\"}", "negative time"},
		{"NaN", "NaN {\"op\":\"disable\"}", "not finite"},
		{"infinity", "+Inf {\"op\":\"disable\"}", "not finite"},
		{"negative infinity", "-Inf {\"op\":\"disable\"}", "not finite"},
		{"past int64 nanoseconds", "1e300 {\"op\":\"disable\"}", "past the largest offset"},
		{"just past int64 nanoseconds", "9.2233720368548e9 {\"op\":\"disable\"}", "past the largest offset"},
		{"bad json", "1 {nope}", "line 1"},
		{"time backwards", "2 {\"op\":\"disable\"}\n1 {\"op\":\"enable\"}", "time goes backwards"},
	}
	for _, c := range cases {
		_, err := ParseScript(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.err)
		}
	}
	// The largest offset a script can hold still parses.
	s, err := ParseScript(strings.NewReader("9.2233720368547e9 {\"op\":\"disable\"}"))
	if err != nil || len(s) != 1 || s[0].At < 9_223_372_036_854_000_000 {
		t.Fatalf("largest offset: %+v, %v", s, err)
	}
}

// FuzzParseScript feeds arbitrary text to ParseScript. Parsing never
// panics, and an accepted script has one entry per line that is
// neither blank nor a comment, at offsets that are non-negative and
// nondecreasing.
func FuzzParseScript(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseScript(strings.NewReader(src))
		if err != nil {
			return
		}
		lines := 0
		for _, line := range strings.Split(src, "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				lines++
			}
		}
		if len(s) != lines {
			t.Fatalf("%d entries from %d command lines", len(s), lines)
		}
		var prev sim.Duration
		for i, tc := range s {
			if tc.At < prev {
				t.Fatalf("entry %d at %v, after %v", i, tc.At, prev)
			}
			prev = tc.At
		}
	})
}

func TestScriptScheduleDrivesController(t *testing.T) {
	n := newTestNode(t)
	c, err := NewController(n.os, validTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	bully := n.startBully(48)
	c.ManageSecondary(bully.Proc)
	c.Start()

	script, err := ParseScript(strings.NewReader(`
1  {"op":"set-buffer","value":16}
3  {"op":"disable"}
5  {"op":"enable"}
`))
	if err != nil {
		t.Fatal(err)
	}
	var applied int
	script.Schedule(c, func(tc TimedCommand, err error) {
		applied++
		if err != nil {
			t.Errorf("command %+v failed: %v", tc, err)
		}
	})

	n.runFor(2 * sim.Second) // after set-buffer 16
	if idle := n.os.IdleCores(); idle != 16 {
		t.Fatalf("idle = %d at t=2s, want 16", idle)
	}
	n.runFor(2 * sim.Second) // after disable
	if idle := n.os.IdleCores(); idle != 0 {
		t.Fatalf("idle = %d at t=4s under kill switch, want 0", idle)
	}
	n.runFor(3 * sim.Second) // after enable, settled
	if idle := n.os.IdleCores(); idle != 16 {
		t.Fatalf("idle = %d at t=7s after re-enable, want 16", idle)
	}
	if applied != 3 {
		t.Fatalf("applied = %d, want 3", applied)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCtlScript drives a live controller through a short script and
// checks one applied-command line per command, in script order, and
// the final summary; a missing script is a usage error, an unreadable
// or malformed one a runtime error.
func TestCtlScript(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "ops.txt")
	ops := "1  {\"op\":\"set-buffer\",\"value\":4}\n1.5 {\"op\":\"disable\"}\n2  {\"op\":\"enable\"}\n"
	if err := os.WriteFile(script, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"ctl", "-script", script, "-seconds", "3"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	applied := regexp.MustCompile(`(?m)^\[\s*([0-9.]+)s\] apply (\S+)\s+value=(\S+)\s+→ ok   \(idle=\d+, buffer=(\d+)\)$`).
		FindAllStringSubmatch(out.String(), -1)
	want := [][]string{{"1.000", "set-buffer", "4", "4"}, {"1.500", "disable", "0", "4"}, {"2.000", "enable", "0", "4"}}
	if len(applied) != len(want) {
		t.Fatalf("%d applied-command lines, want %d:\n%s", len(applied), len(want), out.String())
	}
	for i, w := range want {
		if got := applied[i][1:]; strings.Join(got, " ") != strings.Join(w, " ") {
			t.Errorf("line %d: at/op/value/buffer = %v, want %v", i, got, w)
		}
	}
	for _, re := range []string{
		`(?m)^final: n=\d+ mean=[0-9.]+ms p50=[0-9.]+ms p95=[0-9.]+ms p99=[0-9.]+ms max=[0-9.]+ms$`,
		`(?m)^cpu:   primary=[0-9.]+% secondary=[0-9.]+% os=[0-9.]+% idle=[0-9.]+%$`,
		`(?m)^blind: [1-9]\d* polls, \d+ shrinks, \d+ grows$`,
	} {
		if !regexp.MustCompile(re).MatchString(out.String()) {
			t.Errorf("summary does not match %s:\n%s", re, out.String())
		}
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("1 {\"op\":\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"ctl"}, 2},
		{[]string{"ctl", "-script", filepath.Join(dir, "missing.txt")}, 1},
		{[]string{"ctl", "-script", bad}, 1},
	} {
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}

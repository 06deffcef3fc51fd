package lintrules_test

import (
	"strings"
	"testing"

	"perfiso/internal/lintrules"
	"perfiso/internal/lintrules/linttest"
)

// Each analyzer is checked three ways: its fixture's seeded violations
// (including both //perfiso:allow placement styles) via the inline
// `// want` expectations, an out-of-scope load of the same files where
// the analyzer must stay silent, and a lint.conf allowlist load with
// the same expectation.

func mustConf(t *testing.T, text string) *lintrules.Config {
	t.Helper()
	c, err := lintrules.ParseConfig(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWalltime(t *testing.T) {
	linttest.Run(t, "testdata/walltime/basic", "perfiso/internal/core", nil, lintrules.Walltime)
}

func TestWalltimeConfAllowlist(t *testing.T) {
	conf := mustConf(t, "allow walltime perfiso/internal/core\n")
	linttest.RunClean(t, "testdata/walltime/basic", "perfiso/internal/core", conf, lintrules.Walltime)
	// The allowlist is a path-segment prefix: subpackages are covered,
	// lookalike siblings are not.
	linttest.RunClean(t, "testdata/walltime/basic", "perfiso/internal/core/sub", conf, lintrules.Walltime)
	if fs := linttest.Findings(t, "testdata/walltime/basic", "perfiso/internal/corelike", conf, lintrules.Walltime); len(fs) == 0 {
		t.Error("prefix allowlist for internal/core must not cover internal/corelike")
	}
}

func TestWalltimeStarAllowlist(t *testing.T) {
	conf := mustConf(t, "allow * perfiso/internal/core\n")
	linttest.RunClean(t, "testdata/walltime/basic", "perfiso/internal/core", conf, lintrules.Analyzers()...)
}

func TestGlobalRand(t *testing.T) {
	linttest.Run(t, "testdata/globalrand/basic", "perfiso/internal/workload", nil, lintrules.GlobalRand)
}

func TestGlobalRandConfAllowlist(t *testing.T) {
	conf := mustConf(t, "allow globalrand perfiso/internal/workload\n")
	linttest.RunClean(t, "testdata/globalrand/basic", "perfiso/internal/workload", conf, lintrules.GlobalRand)
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata/maporder/basic", "perfiso/internal/experiments", nil, lintrules.MapOrder)
}

func TestMapOrderSimScheduling(t *testing.T) {
	linttest.Run(t, "testdata/maporder/sim", "perfiso/internal/indexserve", nil, lintrules.MapOrder)
}

func TestNoGoroutine(t *testing.T) {
	linttest.Run(t, "testdata/nogoroutine/basic", "perfiso/internal/cpumodel", nil, lintrules.NoGoroutine)
}

func TestNoGoroutineOutOfScope(t *testing.T) {
	// Harness code outside the cell packages may use concurrency (the
	// CLI serves pprof from a goroutine): the same violations must not
	// be reported there.
	linttest.RunClean(t, "testdata/nogoroutine/basic", "perfiso/cmd/perfiso-repro", nil, lintrules.NoGoroutine)
}

func TestSeqContract(t *testing.T) {
	linttest.Run(t, "testdata/seqcontract/basic", "perfiso/internal/harvest", nil, lintrules.SeqContract)
}

func TestSeqContractOutOfScopeInsideSim(t *testing.T) {
	// internal/sim is the one place allowed to stamp sequencing fields.
	linttest.RunClean(t, "testdata/seqcontract/basic", "perfiso/internal/sim", nil, lintrules.SeqContract)
}

func TestMalformedAllowDirectives(t *testing.T) {
	fs := linttest.Findings(t, "testdata/allow/bad", "perfiso/internal/core", nil, lintrules.Walltime)
	var allow, walltime int
	for _, f := range fs {
		switch f.Analyzer {
		case "allow":
			allow++
		case "walltime":
			walltime++
		default:
			t.Errorf("unexpected analyzer %q: %s", f.Analyzer, f)
		}
	}
	// Three malformed directives: each is reported itself, and none
	// suppresses the clock read on its line.
	if allow != 3 || walltime != 3 {
		t.Errorf("got %d allow + %d walltime findings, want 3 + 3:\n%v", allow, walltime, fs)
	}
	wantMsgs := []string{
		"needs a reason",
		"unknown analyzer warptime",
		"needs an analyzer name and a reason",
	}
	for _, want := range wantMsgs {
		found := false
		for _, f := range fs {
			if f.Analyzer == "allow" && strings.Contains(f.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no allow finding containing %q in %v", want, fs)
		}
	}
}

func TestAnalyzersRegistry(t *testing.T) {
	want := []string{"walltime", "globalrand", "maporder", "nogoroutine", "seqcontract"}
	got := lintrules.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() = %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s has no Doc", a.Name)
		}
		if lintrules.ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	if lintrules.ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}

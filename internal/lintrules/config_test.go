package lintrules

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseConfig(t *testing.T) {
	conf, err := ParseConfig(strings.NewReader(`
# comment line
allow walltime perfiso/internal/shard  # trailing comment
allow * perfiso/examples
`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"walltime", "perfiso/internal/shard", true},
		{"walltime", "perfiso/internal/shard/sub", true},
		{"walltime", "perfiso/internal/sharding", false},  // segment boundary
		{"maporder", "perfiso/internal/shard", false},     // other analyzers unaffected
		{"walltime", "perfiso/examples/quickstart", true}, // * covers every analyzer
		{"maporder", "perfiso/examples/quickstart", true},
		{"walltime", "perfiso/internal/sim", false},
	}
	for _, c := range cases {
		if got := conf.Allowed(c.analyzer, c.pkg); got != c.want {
			t.Errorf("Allowed(%s, %s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

func TestParseConfigRejectsUnknownAnalyzer(t *testing.T) {
	if _, err := ParseConfig(strings.NewReader("allow warptime perfiso\n")); err == nil {
		t.Fatal("unknown analyzer must be rejected")
	}
}

func TestParseConfigRejectsBadSyntax(t *testing.T) {
	for _, line := range []string{"allow walltime", "deny walltime perfiso", "allow walltime a b"} {
		if _, err := ParseConfig(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q must be rejected", line)
		}
	}
}

func TestLoadConfigMissingFileIsEmpty(t *testing.T) {
	conf, err := LoadConfig(filepath.Join(t.TempDir(), "absent.conf"))
	if err != nil {
		t.Fatal(err)
	}
	if conf.Allowed("walltime", "perfiso/internal/core") {
		t.Error("empty config must not allow anything")
	}
}

func TestLoadConfigReadsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint.conf")
	if err := os.WriteFile(path, []byte("allow maporder perfiso/internal/obs\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	conf, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !conf.Allowed("maporder", "perfiso/internal/obs") {
		t.Error("entry from file not applied")
	}
}

func TestNilConfigAllowsNothing(t *testing.T) {
	var conf *Config
	if conf.Allowed("walltime", "perfiso") {
		t.Error("nil config must not allow anything")
	}
}

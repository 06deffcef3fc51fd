package lintrules

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// Config is the parsed form of lint.conf: per-analyzer package-path
// allowlists. An allowlisted package skips the named analyzer entirely
// (where //perfiso:allow suppresses one line, the allowlist exempts a
// whole package — reserve it for packages whose job is the thing the
// rule forbids, and say why in a comment next to the entry).
//
// Format, one directive per line, '#' comments:
//
//	allow <analyzer|*> <import-path-prefix>
//
// The prefix matches the package itself and everything below it
// (path-segment-wise: "perfiso/internal/shard" matches
// "perfiso/internal/shard/x" but not "perfiso/internal/sharding").
// "*" allowlists the package for every analyzer.
type Config struct {
	// allow maps analyzer name ("*" for all) to package path prefixes.
	allow map[string][]string
}

// ParseConfig reads lint.conf syntax. Unknown analyzer names are an
// error so a typo cannot silently widen an exemption.
func ParseConfig(r io.Reader) (*Config, error) {
	c := &Config{allow: map[string][]string{}}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if fields[0] != "allow" || len(fields) != 3 {
			return nil, fmt.Errorf("lint.conf:%d: want \"allow <analyzer|*> <pkg-path-prefix>\", got %q", line, sc.Text())
		}
		name := fields[1]
		if name != "*" && ByName(name) == nil {
			return nil, fmt.Errorf("lint.conf:%d: unknown analyzer %q", line, name)
		}
		c.allow[name] = append(c.allow[name], fields[2])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// LoadConfig reads a lint.conf file from disk. A missing file yields an
// empty config: the analyzers' built-in scopes then apply unmodified.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &Config{allow: map[string][]string{}}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ParseConfig(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Allowed reports whether pkgPath is exempt from the named analyzer.
func (c *Config) Allowed(analyzer, pkgPath string) bool {
	if c == nil {
		return false
	}
	return prefixMatch(c.allow["*"], pkgPath) || prefixMatch(c.allow[analyzer], pkgPath)
}

package report

import (
	"io"
	"os"
	"path/filepath"
	"strings"

	"perfiso/internal/experiments"
)

// WriteFigures writes rendered figures into dir/figures/<name>.svg,
// each through experiments.WriteAtomic, and prunes stale .svg files
// left from earlier figure lists, so the directory is exactly the
// rendered set — CI diffs it byte-for-byte against the committed copy.
func WriteFigures(dir string, figs []Figure) error {
	figDir := filepath.Join(dir, "figures")
	if err := os.MkdirAll(figDir, 0o755); err != nil {
		return err
	}
	keep := map[string]bool{}
	for _, f := range figs {
		name := f.Name + ".svg"
		keep[name] = true
		err := experiments.WriteAtomic(filepath.Join(figDir, name), func(w io.Writer) error {
			_, err := w.Write(f.SVG)
			return err
		})
		if err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(figDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".svg") || keep[e.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(figDir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

package report

import (
	"strings"
	"testing"
)

// csvHeaders are the headers LoadDir requires of cells.csv, series.csv
// and forensics.csv.
var csvHeaders = []string{
	"experiment,cell,metric,value",
	"experiment,cell,series,unit,t,value",
	"experiment,cell,quantile,stat,value",
}

// FuzzParseCSV parses the input against each artifact header. Parsing
// must never panic; every row it accepts must have the header's field
// count and rejoin to its line with any trailing \r removed, rows in
// line order with blank lines skipped; and a file it accepts must start
// with the header and yield a row for every other nonblank line. The
// committed corpus (testdata/fuzz/FuzzParseCSV) holds forensics.csv's
// header and one row, CRLF endings, blank lines, a header alone, an
// empty file, a wrong header, and a row one field too long and one too
// short.
func FuzzParseCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data string) {
		lines := strings.Split(data, "\n")
		var want []string
		for _, line := range lines[1:] {
			if line = strings.TrimRight(line, "\r"); line != "" {
				want = append(want, line)
			}
		}
		for _, header := range csvHeaders {
			fields := strings.Count(header, ",") + 1
			var rows [][]string
			err := parseCSV(data, header, fields, func(f []string) error {
				rows = append(rows, f)
				return nil
			})
			if len(rows) > len(want) {
				t.Fatalf("%q: %d rows from %d nonblank lines", header, len(rows), len(want))
			}
			for i, r := range rows {
				if len(r) != fields {
					t.Fatalf("%q: row %d has %d fields, want %d", header, i, len(r), fields)
				}
				if got := strings.Join(r, ","); got != want[i] {
					t.Fatalf("%q: row %d rejoins to %q, its line is %q", header, i, got, want[i])
				}
			}
			if err != nil {
				continue
			}
			if got := strings.TrimRight(lines[0], "\r"); got != header {
				t.Fatalf("accepted header %q, want %q", got, header)
			}
			if len(rows) != len(want) {
				t.Fatalf("%q: accepted %d rows from %d nonblank lines", header, len(rows), len(want))
			}
		}
	})
}

// TestParseCSVAcceptsArtifacts pins which of FuzzParseCSV's corpus
// inputs parseCSV accepts, and how many rows each yields: CRLF endings,
// blank lines and a header alone are accepted; an empty file, a wrong
// header and a row one field too long or too short are not.
func TestParseCSVAcceptsArtifacts(t *testing.T) {
	const header = "experiment,cell,quantile,stat,value"
	const row = "fig4,bully=standalone/qps=2000,all,queries,20012"
	for _, c := range []struct {
		data string
		rows int
		ok   bool
	}{
		{header + "\n" + row + "\n", 1, true},
		{header + "\r\n" + row + "\r\n", 1, true},
		{header + "\n\n" + row + "\n\r\n\n" + row, 2, true},
		{header + "\n", 0, true},
		{"", 0, false},
		{"experiment,cell,metric,value\n" + row + "\n", 0, false},
		{header + "\n" + row + ",1\n", 0, false},
		{header + "\nfig4,bully=standalone/qps=2000,all,queries\n", 0, false},
	} {
		rows := 0
		err := parseCSV(c.data, header, 5, func([]string) error { rows++; return nil })
		if (err == nil) != c.ok || (c.ok && rows != c.rows) {
			t.Errorf("%q: %d rows, error %v; want %d rows, accepted %v", c.data, rows, err, c.rows, c.ok)
		}
	}
}

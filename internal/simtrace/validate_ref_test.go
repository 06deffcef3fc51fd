package simtrace

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// refValidateChrome is the validator ValidateChrome replaced: one
// json.Unmarshal of the whole file into a slice, then the per-event
// rules. It stays as FuzzValidateChrome's oracle, which pins
// ValidateChrome's one-pass reader to accept and reject exactly what
// encoding/json and these rules do.
func refValidateChrome(data []byte) error {
	var f refChromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("no traceEvents")
	}
	lastTS := make(map[[2]int]float64)
	open := make(map[string]int)
	for i, e := range f.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("event %d: missing name", i)
		}
		switch e.Ph {
		case "M":
			continue
		case "X":
			if e.TS == nil || e.Dur == nil {
				return fmt.Errorf("event %d (%s): slice missing ts/dur", i, e.Name)
			}
			if *e.Dur < 0 {
				return fmt.Errorf("event %d (%s): negative dur %g", i, e.Name, *e.Dur)
			}
		case "b", "e":
			if e.TS == nil || e.ID == nil {
				return fmt.Errorf("event %d (%s): async event missing ts/id", i, e.Name)
			}
			key := e.Cat + "\x00" + e.Name + "\x00" + string(*e.ID)
			if e.Ph == "b" {
				open[key]++
			} else {
				if open[key] == 0 {
					return fmt.Errorf("event %d (%s): async end without begin", i, e.Name)
				}
				open[key]--
			}
		case "i":
			if e.TS == nil {
				return fmt.Errorf("event %d (%s): instant missing ts", i, e.Name)
			}
		default:
			return fmt.Errorf("event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		}
		track := [2]int{e.Pid, e.Tid}
		if prev, ok := lastTS[track]; ok && *e.TS < prev {
			return fmt.Errorf("event %d (%s): ts %g regresses below %g on track %d/%d",
				i, e.Name, *e.TS, prev, e.Pid, e.Tid)
		}
		lastTS[track] = *e.TS
	}
	return nil
}

type refChromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	TS   *float64         `json:"ts"`
	Dur  *float64         `json:"dur"`
	ID   *json.RawMessage `json:"id"`
}

type refChromeFile struct {
	TraceEvents []refChromeEvent `json:"traceEvents"`
}

// goldenChrome is the export TestChromeGolden pins.
const goldenChrome = "testdata/cell.chrome.json"

// FuzzValidateChrome checks that ValidateChrome and the reference
// agree on every input. The seeds are the golden export, the defect
// table and the edge cases under testdata/fuzz/FuzzValidateChrome:
// case-folded and duplicate keys, null and out-of-range numbers,
// non-object tops, trailing garbage, invalid UTF-8, and (the string-*
// files) escaped, non-ASCII and malformed strings in WriteChrome's
// layout.
func FuzzValidateChrome(f *testing.F) {
	golden, err := os.ReadFile(goldenChrome)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, c := range chromeDefects {
		f.Add([]byte(c))
	}
	// Nesting at and one past encoding/json's depth limit of 10000:
	// the top object, the array and the event take three levels.
	for _, depth := range []int{10000 - 3, 10000 - 2} {
		f.Add([]byte(`{"traceEvents":[{"name":"a","ph":"i","ts":1,"args":` +
			strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := ValidateChrome(data), refValidateChrome(data)
		if (got == nil) != (want == nil) {
			t.Fatalf("ValidateChrome = %v, reference = %v on %q", got, want, data)
		}
	})
}

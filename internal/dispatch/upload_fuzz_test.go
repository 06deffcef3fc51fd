package dispatch

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"perfiso/internal/experiments"
	"perfiso/internal/shard"
)

// uploadPlan is FuzzUpload's small manifest: three units, one of them
// shared by a cell of each of two experiments whose results decode as
// an int and as an int8, so a result for it must decode as both.
func uploadPlan(tb testing.TB) (*experiments.Plan, shard.Manifest) {
	tb.Helper()
	reg := experiments.NewRegistry()
	run := func() any { return 0 }
	for _, e := range []struct {
		name   string
		decode func([]byte) (any, error)
		cells  []experiments.Cell
	}{
		{"ints", experiments.DecodeJSONResult[int], []experiments.Cell{{Name: "a", Key: "shared", Run: run}, {Name: "b", Run: run}}},
		{"bytes", experiments.DecodeJSONResult[int8], []experiments.Cell{{Name: "c", Key: "shared", Run: run}, {Name: "d", Run: run}}},
	} {
		reg.MustRegister(experiments.Experiment{
			Name:     e.name,
			Describe: e.name,
			Cells:    func(experiments.ScaleSpec) []experiments.Cell { return e.cells },
			Assemble: func(_ experiments.ScaleSpec, _ []experiments.Cell, results []any) (any, experiments.Report) {
				return results, experiments.Report{}
			},
			DecodeResult: e.decode,
		})
	}
	plan, m, err := shard.BuildPlan(reg, experiments.TestSpec(), "")
	if err != nil {
		tb.Fatal(err)
	}
	return plan, m
}

// hashToken stands for the manifest's hash in FuzzUpload's input, so
// the corpus reaches past the hash check without spelling out a hash
// that changes whenever the manifest format does.
const hashToken = "@hash"

// uploadBody is one upload of result for unit.
func uploadBody(unit, result string) []byte {
	return []byte(`{"worker":"w","manifest_hash":"` + hashToken + `","cell":{"unit":"` + unit +
		`","experiment":"e","cell":"c","result":` + result + `,"seconds":0.5}}`)
}

// unitStates copies every unit's book-keeping.
func unitStates(c *Coordinator) []unitState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]unitState, len(c.states))
	for i, s := range c.states {
		out[i] = *s
	}
	return out
}

// FuzzUpload posts arbitrary bodies to the coordinator's upload
// endpoint, with the plan's result check, as serve and RunLocal pass
// it. The input is one or more bodies separated by NUL bytes, each
// posted in turn to one coordinator, with hashToken replaced by the
// manifest's hash. Every answer must be 200, 400 or 409; a 200 must
// complete one unit not yet done, and a 4xx must leave every unit as
// it was (no uploader holds a lease, so a refused result ends none;
// TestRejectedResultEndsLease covers a holder's). Then every unit
// still open gets a valid upload, and the run must merge: no result
// the merge cannot decode may have won a unit. The committed corpus
// (testdata/fuzz/FuzzUpload) holds sequences: an undecodable result
// before a valid one, a stale upload after an accepted one, and a
// result the shared unit's int8 experiment rejects.
func FuzzUpload(f *testing.F) {
	plan, m := uploadPlan(f)
	for _, body := range [][]byte{
		uploadBody("cell:ints/b", "7"),
		uploadBody("key:shared", "100"),
		uploadBody("key:shared", "300"),
		uploadBody("cell:bytes/d", `"x"`),
		uploadBody("cell:bytes/d", "null"),
		uploadBody("cell:ints/z", "1"),
		[]byte(`{"worker":"w","manifest_hash":"sha256:other","cell":{"unit":"cell:ints/b","result":1}}`),
		[]byte(`{"worker":`),
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewCoordinator(m, plan.CheckResult, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handler()
		post := func(body []byte) (int, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(body)))
			return rec.Code, rec.Body.String()
		}
		for _, body := range bytes.Split(data, []byte{0}) {
			body = bytes.ReplaceAll(body, []byte(hashToken), []byte(m.Hash))
			before := unitStates(c)
			code, msg := post(body)
			after := unitStates(c)
			switch code {
			case http.StatusOK:
				// A unit stays done, so this also allows one 200 per unit.
				completed := 0
				for i := range after {
					if after[i].status == unitDone && before[i].status != unitDone {
						completed++
					}
				}
				if completed != 1 {
					t.Fatalf("200 for body %q completed %d units, want 1", body, completed)
				}
			case http.StatusBadRequest, http.StatusConflict:
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("%d %s changed the units from %+v to %+v", code, msg, before, after)
				}
			default:
				t.Fatalf("status %d (%s) for body %q", code, msg, body)
			}
		}
		for _, s := range unitStates(c) {
			if s.status == unitDone {
				continue
			}
			if code, msg := post(bytes.ReplaceAll(uploadBody(s.unit.ID, "0"), []byte(hashToken), []byte(m.Hash))); code != http.StatusOK {
				t.Fatalf("valid upload for open unit %s: %d %s", s.unit.ID, code, msg)
			}
		}
		p, err := c.Partial()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := shard.Merge(plan, m, []shard.Partial{p}); err != nil {
			t.Fatalf("accepted uploads do not merge: %v", err)
		}
	})
}

package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// readJSON decodes one BENCH_*.json file into v.
func readJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestCommittedBenchFresh is the freshness guard for committed numbers: it
// re-runs the experiments that are cheap and deterministic in the seed — the
// scale sweep's N=100 and N=1000 rows and the whole byz sweep, about a
// second together — and fails if any non-wall field differs from the
// BENCH_scale.json / BENCH_byz.json at the repo root. A change that moves a
// modelled number must either be a bug or regenerate the files in the same
// commit; a cost-model charge that lands after a file was written (the
// 35 ns/value EncodeSim drift) can no longer go unnoticed.
func TestCommittedBenchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs two flbench experiments")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	// The same configuration `flbench scale` and `flbench byz` run under.
	r, err := NewRunner(Quick())
	if err != nil {
		t.Fatal(err)
	}

	sizes := []int{100, 1000}
	if err := r.Scale(io.Discard, sizes); err != nil {
		t.Fatal(err)
	}
	var gotScale, wantScale scaleReport
	readJSON(t, filepath.Join(tmp, scaleJSON), &gotScale)
	readJSON(t, filepath.Join(root, scaleJSON), &wantScale)
	if len(wantScale.Rows) < len(gotScale.Rows) {
		t.Fatalf("committed %s has %d rows, the sweep's first %d sizes produce %d",
			scaleJSON, len(wantScale.Rows), len(sizes), len(gotScale.Rows))
	}
	wantScale.Rows = wantScale.Rows[:len(gotScale.Rows)]
	for _, rep := range []*scaleReport{&gotScale, &wantScale} {
		for i := range rep.Rows {
			rep.Rows[i].WallNs = 0
		}
	}
	if !reflect.DeepEqual(gotScale, wantScale) {
		for i := range gotScale.Rows {
			if gotScale.Rows[i] != wantScale.Rows[i] {
				t.Errorf("%s row %d is stale:\n committed   %+v\n regenerated %+v",
					scaleJSON, i, wantScale.Rows[i], gotScale.Rows[i])
			}
		}
		t.Fatalf("%s is stale: regenerate it with `make scale` and commit the result", scaleJSON)
	}

	if err := r.Byz(io.Discard); err != nil {
		t.Fatal(err)
	}
	var gotByz, wantByz byzReport
	readJSON(t, filepath.Join(tmp, byzJSON), &gotByz)
	readJSON(t, filepath.Join(root, byzJSON), &wantByz)
	if !reflect.DeepEqual(gotByz, wantByz) {
		for i := range gotByz.Rows {
			if i < len(wantByz.Rows) && gotByz.Rows[i] != wantByz.Rows[i] {
				t.Errorf("%s row %d is stale:\n committed   %+v\n regenerated %+v",
					byzJSON, i, wantByz.Rows[i], gotByz.Rows[i])
			}
		}
		t.Fatalf("%s is stale: regenerate it with `flbench byz` and commit the result", byzJSON)
	}
}

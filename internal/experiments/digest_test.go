package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// digestDuration is the simulated length of every TestScenarioDigests
// run: start-up, slow start and the first feedback rounds of every
// entry, short enough that the whole registry takes under a second.
// Events scripted later in a run are outside it; the deterministic
// tfmccbench report covers full-length runs.
const digestDuration = 5 * sim.Second

// scenarioDigest returns the sha256 of a 5 s, seed-1 run of a registry
// scenario's TSV.
func scenarioDigest(t *testing.T, id string) string {
	t.Helper()
	ov := scenario.None() // keep every declared loss rate
	ov.Duration = digestDuration
	res, err := RunOverridden(NewRunCtx(), id, ov, 1)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	sum := sha256.Sum256([]byte(res.TSV()))
	return hex.EncodeToString(sum[:])
}

// TestScenarioDigests pins the simulator's output: every Spec-backed
// registry entry, shortened to 5 s, must hash to the digest recorded in
// testdata/scenario_digests.txt. A change that moves any byte of those
// runs fails here; a deliberate change must say why when it rewrites
// the file.
func TestScenarioDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; Go may fuse multiply-adds on %s and move the last float bits", runtime.GOARCH)
	}
	f, err := os.Open("testdata/scenario_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[id] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ScenarioIDs() {
		got := scenarioDigest(t, id)
		if want[id] == "" {
			t.Errorf("%s: no recorded digest (got %s %s)", id, id, got)
		} else if got != want[id] {
			t.Errorf("%s: digest %s, recorded %s", id, got, want[id])
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("%s: recorded digest for a scenario the registry no longer has", id)
	}
}

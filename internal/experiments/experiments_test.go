package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"1", "2", "3", "4", "5", "6", "7", "9", "10", "11",
		"12", "13", "14", "15", "16", "17", "18", "19", "20", "21",
		"chainloss", "clrfail", "cohort16", "cohort64", "cohort256", "cohortconv",
		"corruptfb", "deeptree", "degrade", "flashcrowd",
		"massleave", "partition", "tcpburst", "wireless"}
	for _, id := range want {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("entry %s not registered", id)
		}
		if e.Title == "" {
			t.Fatalf("entry %s has no title", id)
		}
		if e.HasTag(TagAnalytic) == e.HasTag(TagEngine) {
			t.Fatalf("entry %s must carry exactly one of analytic/engine, got %v", id, e.Tags)
		}
		if e.HasTag(TagScenario) && e.Spec == nil {
			t.Fatalf("scenario preset %s has no spec", id)
		}
	}
	if len(Figures()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Figures()), len(want))
	}
}

func TestFiguresSortedNumerically(t *testing.T) {
	ids := Figures()
	if ids[0] != "1" || ids[19] != "21" {
		t.Fatalf("numeric figures must sort first, ascending: %v", ids)
	}
	for _, id := range ids[20:] {
		if id[0] >= '0' && id[0] <= '9' {
			t.Fatalf("numeric id %s after the named presets: %v", id, ids)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("999", 1); err == nil {
		t.Fatal("unknown figure should error")
	}
}

func TestFigure1CDFShape(t *testing.T) {
	res, err := Run("1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("want 3 CDF curves, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		last := s.Points[len(s.Points)-1].V
		if last < 0.999 {
			t.Fatalf("%s: CDF does not reach 1: %v", s.Name, last)
		}
		prev := -1.0
		for _, p := range s.Points {
			if p.V < prev-1e-9 {
				t.Fatalf("%s: CDF not monotone", s.Name)
			}
			prev = p.V
		}
	}
}

func TestFigure3CancellationOrdering(t *testing.T) {
	res, err := Run("3", 1)
	if err != nil {
		t.Fatal(err)
	}
	var all, ten, higher float64
	for _, s := range res.Series {
		// Compare at the largest receiver count.
		v := s.Points[len(s.Points)-1].V
		switch s.Name {
		case "all suppressed":
			all = v
		case "10% lower suppressed":
			ten = v
		case "higher suppressed":
			higher = v
		}
	}
	// Paper shape: eps=1 smallest, eps=0.1 slightly higher, eps=0 grows
	// with n and is clearly the largest at n=10000.
	if !(all <= ten && ten < higher) {
		t.Fatalf("cancellation ordering violated: all=%v ten=%v higher=%v", all, ten, higher)
	}
	if higher < 8 {
		t.Fatalf("eps=0 should grow into double digits at n=10⁴, got %v", higher)
	}
	if ten > 15 {
		t.Fatalf("eps=0.1 should stay near-constant, got %v", ten)
	}
}

func TestFigure4Implosion(t *testing.T) {
	res, err := Run("4", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The T'=2 curve must show far more responses than T'=6 at large n.
	first := res.Series[0].Points
	lastSeries := res.Series[len(res.Series)-1].Points
	if first[len(first)-1].V < 4*lastSeries[len(lastSeries)-1].V {
		t.Fatal("shrinking T' should sharply increase responses")
	}
}

func TestFigure5ResponseTimeDecreases(t *testing.T) {
	res, err := Run("5", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		first := s.Points[0].V
		last := s.Points[len(s.Points)-1].V
		if last >= first {
			t.Fatalf("%s: response time should fall with n (%v -> %v)", s.Name, first, last)
		}
	}
}

func TestFigure6BiasImprovesQuality(t *testing.T) {
	res, err := Run("6", 1)
	if err != nil {
		t.Fatal(err)
	}
	var unbiased, modified float64
	for _, s := range res.Series {
		mean := s.Mean()
		switch s.Name {
		case "unbiased exponential":
			unbiased = mean
		case "modified offset":
			modified = mean
		}
	}
	if modified >= unbiased {
		t.Fatalf("modified offset should report closer-to-minimum rates: %v vs %v", modified, unbiased)
	}
}

func TestFigure7ScalingShape(t *testing.T) {
	res, err := Run("7", 1)
	if err != nil {
		t.Fatal(err)
	}
	var constant, distrib []float64
	for _, s := range res.Series {
		var vals []float64
		for _, p := range s.Points {
			vals = append(vals, p.V)
		}
		if s.Name == "constant" {
			constant = vals
		} else {
			distrib = vals
		}
	}
	// Single receiver at ~300 Kbit/s; degradation grows with n.
	if constant[0] < 200 || constant[0] > 420 {
		t.Fatalf("single-receiver rate %v, want ~300 Kbit/s", constant[0])
	}
	n := len(constant)
	degC := constant[n-1] / constant[0]
	degD := distrib[len(distrib)-1] / distrib[0]
	// Paper: constant loss at n=10000 gives ~1/6 of the fair rate; the
	// tree-like distribution loses only ~30%.
	if degC > 0.40 {
		t.Fatalf("constant-loss degradation too weak: %.2f of fair rate", degC)
	}
	if degD < degC+0.15 {
		t.Fatalf("distributed loss should degrade much less: %.2f vs %.2f", degD, degC)
	}
}

func TestFigure17Maximum(t *testing.T) {
	res, err := Run("17", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[0].Max() < 0.10 || res.Series[0].Max() > 0.16 {
		t.Fatalf("loss events/RTT maximum = %v, want ~0.13", res.Series[0].Max())
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "maximum") {
			found = true
		}
	}
	if !found {
		t.Fatal("note with the maximum missing")
	}
}

func TestResultRendering(t *testing.T) {
	res, err := Run("17", 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if !strings.Contains(sum, "Figure 17") {
		t.Fatalf("summary malformed: %q", sum)
	}
	tsv := res.TSV()
	if !strings.HasPrefix(tsv, "series\tx\ty\n") || len(strings.Split(tsv, "\n")) < 10 {
		t.Fatal("TSV malformed")
	}
}

func TestLogSpace(t *testing.T) {
	v := logSpace(1, 10000, 5)
	if v[0] != 1 || v[len(v)-1] != 10000 {
		t.Fatalf("logSpace endpoints wrong: %v", v)
	}
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			t.Fatalf("logSpace not strictly increasing: %v", v)
		}
	}
}

func TestFigure15ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation figure")
	}
	res, err := Run("15", 1)
	if err != nil {
		t.Fatal(err)
	}
	var tf *int
	for i, s := range res.Series {
		if s.Name == "TFMCC flow" {
			i := i
			tf = &i
		}
	}
	if tf == nil {
		t.Fatal("TFMCC series missing")
	}
	s := res.Series[*tf]
	before := s.MeanBetween(20e9, 50e9)  // 20-50s in ns
	during := s.MeanBetween(60e9, 100e9) // 60-100s
	after := s.MeanBetween(120e9, 140e9) // 120-140s
	if during > 320 {
		t.Fatalf("rate during 200 Kbit/s join = %v, want <= ~300", during)
	}
	if before < 2.0*during || after < 2.0*during {
		t.Fatalf("late join shape wrong: before=%v during=%v after=%v", before, during, after)
	}
}

func TestSessionThroughputHelper(t *testing.T) {
	rate := SessionThroughput(10, 20)
	// After 20s of slowstart on a 1 Mbit/s link, the rate should be well
	// above the initial 2000 B/s and at most ~2x the bottleneck.
	if rate < 4000 || rate > 2.5*125000 {
		t.Fatalf("SessionThroughput(10, 20) = %.0f B/s", rate)
	}
}

func TestAblationFeedbackBiasOrdering(t *testing.T) {
	res := AblationFeedbackBias(NewRunCtx(), 1)
	var unbiased, modOffset float64
	for _, s := range res.Series {
		switch s.Name {
		case "unbiased":
			unbiased = s.Points[0].V
		case "modified-offset":
			modOffset = s.Points[0].V
		}
	}
	if modOffset >= unbiased {
		t.Fatalf("modified offset should beat unbiased: %v vs %v", modOffset, unbiased)
	}
}

func TestExtensionFeedbackTreeQuality(t *testing.T) {
	res := ExtensionFeedbackTree(NewRunCtx(), 1)
	// The tree's best report always carries the exact minimum.
	for _, s := range res.Series {
		if s.Name == "tree quality" {
			for _, p := range s.Points {
				if p.V != 0 {
					t.Fatalf("tree aggregation lost the minimum: quality %v", p.V)
				}
			}
		}
	}
}

// TestLateJoinDeterministic guards the engine's seed-determinism through
// the late-join scenario, which exercises mid-run Join/Leave against the
// cached multicast trees: the same seed must reproduce the same summary.
func TestLateJoinDeterministic(t *testing.T) {
	a, err := Run("15", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("15", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("late-join figure not seed-deterministic:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
}

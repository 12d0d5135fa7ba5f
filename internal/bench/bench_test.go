package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"goldfish/internal/data"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden experiment reports under testdata")

// checkGolden compares a rendered report with testdata/<name>.golden byte
// for byte. The goldens pin the paper tables' numbers, so any change to the
// training path behind a column (Goldfish or a baseline) shows up here.
// After an intentional change, regenerate with:
//
//	go test ./internal/bench -run 'TestRunTable3Tiny|TestRunFig4Tiny' -update
func checkGolden(t *testing.T, name string, rep *Report) {
	t.Helper()
	var buf bytes.Buffer
	rep.Render(&buf)
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	// Generated on amd64; architectures that fuse multiply-adds round
	// training float ops differently.
	if runtime.GOARCH != "amd64" {
		t.Logf("skipping byte comparison on %s (goldens generated on amd64)", runtime.GOARCH)
		return
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s: report drifted from the golden file\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

func tinyOpts() Options {
	return Options{Scale: data.ScaleTiny, Seed: 1, Rounds: 4, DeletionRates: []int{6}}
}

func TestRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 16 {
		t.Fatalf("registry has %d experiments, want ≥16", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"fig4", "fig5", "table3", "table10", "fig6", "fig8", "table12"} {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "Demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Demo", "long-column", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRender(t *testing.T) {
	fig := Figure{
		Title:  "Curve",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "s1", X: []float64{1, 2}, Y: []float64{0.5, 0.75}},
			{Name: "s2", X: []float64{2}, Y: []float64{0.25}},
		},
	}
	var sb strings.Builder
	fig.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Curve", "s1", "s2", "0.7500", "0.2500"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != data.ScaleSmall || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestDefaultRates(t *testing.T) {
	if got := defaultRates(data.ScaleSmall); len(got) != 3 {
		t.Errorf("small rates = %v", got)
	}
	if got := defaultRates(data.ScalePaper); len(got) != 6 {
		t.Errorf("paper rates = %v", got)
	}
}

func TestArchMapping(t *testing.T) {
	if archFor("cifar100") != "resnet56" {
		t.Errorf("cifar100 arch = %s", archFor("cifar100"))
	}
	if archFor("mnist") != "lenet5" {
		t.Errorf("mnist arch = %s", archFor("mnist"))
	}
}

// Smoke tests: each experiment family runs end-to-end at tiny scale. These
// are integration tests of the entire stack.

func TestRunTable3Tiny(t *testing.T) {
	rep, err := tableBackdoor("mnist")(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 1 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	if got := len(rep.Tables[0].Rows[0]); got != 9 {
		t.Errorf("row has %d cells, want 9", got)
	}
	checkGolden(t, "table3-tiny", rep)
}

func TestRunFig6Tiny(t *testing.T) {
	opts := tinyOpts()
	rep, err := RunFig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 1 {
		t.Fatalf("want 1 figure, got %d", len(rep.Figures))
	}
	fig := rep.Figures[0]
	if len(fig.Series) != len(shardCounts(opts.Scale)) {
		t.Errorf("series = %d, want %d", len(fig.Series), len(shardCounts(opts.Scale)))
	}
	for _, srs := range fig.Series {
		if len(srs.Y) != opts.Rounds {
			t.Errorf("series %s has %d points, want %d", srs.Name, len(srs.Y), opts.Rounds)
		}
	}
}

func TestRunFig9Tiny(t *testing.T) {
	rep, err := RunFig9(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 1 || len(rep.Figures[0].Series) != 6 {
		t.Fatalf("want 6 series (2 aggregators × 3 client counts), got %+v", rep.Figures)
	}
}

func TestRunTable12Tiny(t *testing.T) {
	rep, err := RunTable12(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rep.Tables[0].Rows))
	}
}

func TestRunAblateEarlyTiny(t *testing.T) {
	rep, err := RunAblateEarly(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 3 {
		t.Fatalf("want 3 delta rows, got %d", len(rep.Tables[0].Rows))
	}
}

func TestSpeedRow(t *testing.T) {
	series := []Series{
		{Name: "ours", X: []float64{1, 2, 3}, Y: []float64{0.2, 0.5, 0.8}},
		{Name: "B2", X: []float64{1, 2, 3}, Y: []float64{0.1, 0.3, 0.6}},
		{Name: "B1", X: []float64{1, 2, 3}, Y: []float64{0.1, 0.2, 0.3}},
	}
	row := speedRow("demo", series)
	// best = 0.8, threshold = 0.4: ours reaches at round 2, B2 at 3, B1 never.
	if row[2] != "2" || row[3] != "3" || row[4] != "-" {
		t.Errorf("speedRow = %v", row)
	}
}

func TestRunFig7Tiny(t *testing.T) {
	rep, err := RunFig7(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 3 {
		t.Fatalf("want 3 rate figures, got %d", len(rep.Figures))
	}
	for _, fig := range rep.Figures {
		if len(fig.Series) != 4 {
			t.Errorf("%s: %d series, want 4 shard counts", fig.Title, len(fig.Series))
		}
	}
}

func TestRunFig8Tiny(t *testing.T) {
	rep, err := RunFig8(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 3 {
		t.Fatalf("want 3 client-count figures, got %d", len(rep.Figures))
	}
	// Each figure: global + min + max for both aggregators.
	if got := len(rep.Figures[0].Series); got != 6 {
		t.Errorf("series = %d, want 6", got)
	}
}

func TestRunTable11Tiny(t *testing.T) {
	rep, err := RunTable11(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if len(tbl.Columns) != 5 { // Round, Metric + 3 variants
		t.Errorf("columns = %v", tbl.Columns)
	}
	if len(tbl.Rows) != 8 { // 4 checkpoints × (acc, backdoor)
		t.Errorf("rows = %d, want 8", len(tbl.Rows))
	}
}

func TestRunTable7Tiny(t *testing.T) {
	rep, err := tableDivergence("mnist")(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Tables[0].Rows[0]
	if len(row) != 7 {
		t.Fatalf("row = %v, want 7 cells", row)
	}
}

func TestRunAblateTempTiny(t *testing.T) {
	rep, err := RunAblateTemp(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 2 {
		t.Fatalf("want 2 rows (fixed, adaptive), got %d", len(rep.Tables[0].Rows))
	}
}

func TestBadDeletionRate(t *testing.T) {
	opts := tinyOpts()
	opts.DeletionRates = []int{0}
	if _, err := tableBackdoor("mnist")(opts); err == nil {
		t.Error("0%% deletion rate accepted")
	}
	opts.DeletionRates = []int{100}
	if _, err := tableBackdoor("mnist")(opts); err == nil {
		t.Error("100%% deletion rate accepted")
	}
}

func TestRunFig4Tiny(t *testing.T) {
	opts := tinyOpts()
	rep, err := RunFig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 3 {
		t.Fatalf("want 3 combo figures at tiny scale, got %d", len(rep.Figures))
	}
	for _, fig := range rep.Figures {
		if len(fig.Series) != 3 {
			t.Errorf("%s: %d series, want ours/B2/B1", fig.Title, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Y) != opts.Rounds {
				t.Errorf("%s/%s: %d points, want %d", fig.Title, s.Name, len(s.Y), opts.Rounds)
			}
		}
	}
	// The speed summary has one row per combo.
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 3 {
		t.Errorf("speed table shape wrong: %+v", rep.Tables)
	}
	checkGolden(t, "fig4-tiny", rep)
}

func TestRunFig5Tiny(t *testing.T) {
	rep, err := RunFig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 3 {
		t.Fatalf("want 3 combo figures, got %d", len(rep.Figures))
	}
	for _, fig := range rep.Figures {
		if len(fig.Series) != 4 {
			t.Errorf("%s: %d series, want origin/ours/B1/B3", fig.Title, len(fig.Series))
		}
	}
}

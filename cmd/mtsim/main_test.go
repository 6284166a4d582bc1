package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"table1", "fig1a", "fig9b", "ext-steiner", "churn-steady", "churn-repair"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %s:\n%s", id, out)
		}
	}
}

// TestListGroupedFormat pins the grouped -list layout: "[family]" header
// lines in paper order, every experiment under exactly the right header,
// groups separated by blank lines.
func TestListGroupedFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	var headers []string
	family := ""
	got := map[string]string{} // id -> family
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimRight(line, " ")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			family = strings.Trim(line, "[]")
			headers = append(headers, family)
			continue
		}
		if family == "" {
			t.Fatalf("experiment line before any [family] header: %q", line)
		}
		got[strings.Fields(line)[0]] = family
	}
	wantHeaders := []string{"curve", "shared", "steiner", "ensemble", "weighted", "affinity", "churn"}
	if strings.Join(headers, ",") != strings.Join(wantHeaders, ",") {
		t.Fatalf("family headers = %v, want %v", headers, wantHeaders)
	}
	for id, fam := range map[string]string{
		"table1":             "curve",
		"fig9b":              "curve",
		"ext-shared":         "shared",
		"ext-affinity-graph": "affinity",
		"churn-steady":       "churn",
		"churn-repair":       "churn",
	} {
		if got[id] != fam {
			t.Fatalf("%s grouped under %q, want %q\n%s", id, got[id], fam, out)
		}
	}
}

func TestDescribe(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-describe"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig9b") || !strings.Contains(out, "Metropolis") {
		t.Fatalf("describe output:\n%s", out[:200])
	}
}

// TestReportMode: -report alone runs every experiment and prints the
// report; with -experiment all and -out it renders the run's own results
// into <out>/REPORT.md, which differs from the printed report only in its
// Generated line. With -experiment but no -out it is refused.
func TestReportMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-report", "-profile", "quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# mtreescale experiment report") || !strings.Contains(out, "## fig8") {
		t.Fatalf("report output:\n%s", out[:120])
	}
	dir := t.TempDir()
	var log bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "all", "-profile", "quick", "-parallel", "0", "-out", dir, "-report"}, &log); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "wrote REPORT.md") {
		t.Fatalf("no REPORT.md line:\n%s", log.String())
	}
	md, err := os.ReadFile(filepath.Join(dir, "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	generated := regexp.MustCompile(`Generated .*`)
	if got, want := generated.ReplaceAllString(string(md), ""), generated.ReplaceAllString(out, ""); got != want {
		t.Fatalf("REPORT.md differs from the printed report beyond its Generated line:\n%s", got)
	}
	if err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-report"}, &log); err == nil {
		t.Fatal("-report with -experiment and no -out must error")
	}
}

func TestMissingExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), nil, &buf); err == nil {
		t.Fatal("no arguments must error")
	}
}

func TestUnknownProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "bogus"}, &buf); err == nil {
		t.Fatal("unknown profile must error")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "nope", "-profile", "quick"}, &buf); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-format", "png"}, &buf); err == nil {
		t.Fatal("unknown format must error")
	}
}

func TestTableASCII(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "table1", "-profile", "quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "arpa") || !strings.Contains(out, "avg degree") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestTableCSVAndGnuplotRejection(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "table1", "-profile", "quick", "-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "name,style") {
		t.Fatalf("csv header missing:\n%s", buf.String())
	}
	if err := run(context.Background(), []string{"-experiment", "table1", "-profile", "quick", "-format", "gnuplot"}, &buf); err == nil {
		t.Fatal("gnuplot of a table must error")
	}
}

func TestFigureFormats(t *testing.T) {
	for _, format := range []string{"ascii", "csv", "gnuplot", "notes"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-format", format}, &buf); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty output", format)
		}
	}
}

func TestParallelSchedulerOutDirectory(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "all", "-profile", "quick", "-parallel", "0", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Files and "wrote" lines must appear for every experiment, in paper
	// order, with the stats summary appended.
	if _, err := os.Stat(filepath.Join(dir, "fig1a.csv")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table1.txt")); err != nil {
		t.Fatal(err)
	}
	t1 := strings.Index(out, "wrote table1")
	f1 := strings.Index(out, "wrote fig1a")
	f9 := strings.Index(out, "wrote fig9b")
	if t1 < 0 || f1 < 0 || f9 < 0 || !(t1 < f1 && f1 < f9) {
		t.Fatalf("output not in paper order:\n%s", out)
	}
	if !strings.Contains(out, "# schedule:") || !strings.Contains(out, "wall") {
		t.Fatalf("missing stats summary:\n%s", out)
	}
}

func TestParallelSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-parallel", "4", "-format", "notes"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# schedule: 1 experiments") {
		t.Fatalf("missing schedule summary:\n%s", buf.String())
	}
}

// TestSummaryAtEveryParallel checks the schedule table in both modes. Run
// one at a time, experiments' allocations are exact; run two at once, each
// experiment's process-wide delta counts the other's, and the table says
// so. Either way it ends with the peak RSS, or "n/a" where the OS does not
// say.
func TestSummaryAtEveryParallel(t *testing.T) {
	for _, tc := range []struct {
		parallel, label, other string
		note                   bool
	}{
		{"1", "alloc (exact)", "alloc (process-wide)", false},
		{"2", "alloc (process-wide)", "alloc (exact)", true},
	} {
		var buf bytes.Buffer
		args := []string{"-experiment", "fig8,fig2a", "-profile", "quick", "-parallel", tc.parallel, "-format", "notes"}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "# schedule: 2 experiments, parallel="+tc.parallel) {
			t.Fatalf("-parallel %s: missing schedule header:\n%s", tc.parallel, out)
		}
		for _, id := range []string{"fig8", "fig2a"} {
			if !regexp.MustCompile(`(?m)^# ` + id + ` +wall +[0-9.]+s  ` + regexp.QuoteMeta(tc.label) + ` +[0-9.]+ MB$`).MatchString(out) {
				t.Fatalf("-parallel %s: no %q row for %s:\n%s", tc.parallel, tc.label, id, out)
			}
		}
		if strings.Contains(out, tc.other) || strings.Contains(out, "# experiments overlapped") != tc.note {
			t.Fatalf("-parallel %s: mislabelled alloc column:\n%s", tc.parallel, out)
		}
		if !regexp.MustCompile(`(?m)^# peak RSS ([0-9]+\.[0-9] MB|n/a)$`).MatchString(out) {
			t.Fatalf("-parallel %s: no peak RSS line:\n%s", tc.parallel, out)
		}
	}
	// A CSV stream on stdout keeps no table: it must still parse.
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := csv.NewReader(&buf).ReadAll(); err != nil {
		t.Fatalf("stdout CSV does not parse: %v", err)
	}
}

func TestOutDirectory(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".txt", ".csv", ".gp"} {
		if _, err := os.Stat(filepath.Join(dir, "fig8"+ext)); err != nil {
			t.Fatalf("missing fig8%s: %v", ext, err)
		}
	}
	// Table writes txt + csv only.
	if err := run(context.Background(), []string{"-experiment", "table1", "-profile", "quick", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table1.csv")); err != nil {
		t.Fatal(err)
	}
}

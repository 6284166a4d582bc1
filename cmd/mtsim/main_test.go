package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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

func TestReportMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-report", "-profile", "quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# mtreescale experiment report") || !strings.Contains(out, "## fig8") {
		t.Fatalf("report output:\n%s", out[:120])
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

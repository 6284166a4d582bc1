package experiments

import (
	"testing"
)

func TestRunManySequentialAndParallelAgree(t *testing.T) {
	p := Quick()
	ids := []string{"table1", "fig8", "fig3a"}
	seq, err := RunMany(ids, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMany(ids, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(ids) || len(par) != len(ids) {
		t.Fatalf("stats lengths %d/%d", len(seq), len(par))
	}
	for i := range ids {
		if seq[i].ID != ids[i] || par[i].ID != ids[i] {
			t.Fatalf("stats out of input order: %s/%s want %s", seq[i].ID, par[i].ID, ids[i])
		}
		if seq[i].Wall <= 0 || par[i].Wall <= 0 {
			t.Fatalf("%s: missing wall-clock stats", ids[i])
		}
		a, b := seq[i].Result, par[i].Result
		if a == nil || b == nil {
			t.Fatalf("%s: nil result", ids[i])
		}
		// Experiments are deterministic per profile, so scheduling must not
		// change the output (figures or tables).
		if (a.Figure == nil) != (b.Figure == nil) || len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: sequential and parallel results diverge", ids[i])
		}
		if a.Figure != nil {
			if len(a.Figure.Series) != len(b.Figure.Series) {
				t.Fatalf("%s: series count diverges", ids[i])
			}
			for s := range a.Figure.Series {
				sa, sb := a.Figure.Series[s], b.Figure.Series[s]
				if sa.Name != sb.Name || len(sa.X) != len(sb.X) {
					t.Fatalf("%s series %d: shape diverges", ids[i], s)
				}
				for j := range sa.Y {
					if sa.Y[j] != sb.Y[j] {
						t.Fatalf("%s series %d point %d: %v != %v", ids[i], s, j, sa.Y[j], sb.Y[j])
					}
				}
			}
		}
		for r := range a.Rows {
			for c := range a.Rows[r] {
				if a.Rows[r][c] != b.Rows[r][c] {
					t.Fatalf("%s row %d col %d: %q != %q", ids[i], r, c, a.Rows[r][c], b.Rows[r][c])
				}
			}
		}
	}
}

func TestRunManyPropagatesError(t *testing.T) {
	stats, err := RunMany([]string{"fig8", "no-such-experiment"}, Quick(), 2)
	if err == nil {
		t.Fatal("unknown experiment must error")
	}
	if len(stats) != 2 {
		t.Fatalf("stats length %d, want 2 (all experiments attempted)", len(stats))
	}
	if stats[0].Err != nil || stats[0].Result == nil {
		t.Fatal("healthy experiment must still complete")
	}
	if stats[1].Err == nil {
		t.Fatal("failing experiment must record its error")
	}
}

func TestRunManyBadProfile(t *testing.T) {
	if _, err := RunMany([]string{"fig8"}, Profile{}, 1); err == nil {
		t.Fatal("invalid profile must error")
	}
}

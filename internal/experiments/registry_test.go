package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestEveryRunnerFullyDescribed(t *testing.T) {
	for _, id := range IDs() {
		r, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if r.Title == "" || r.Description == "" {
			t.Errorf("%s: missing title or description", id)
		}
		if r.Run == nil {
			t.Errorf("%s: nil runner", id)
		}
		// Paper items reference their figure/table; extensions say what
		// they extend.
		if strings.HasPrefix(id, "fig") && !strings.Contains(r.Title, "Figure") {
			t.Errorf("%s: title %q does not name its figure", id, r.Title)
		}
		if strings.HasPrefix(id, "ext-") && !strings.Contains(r.Title, "Extension") {
			t.Errorf("%s: title %q does not mark itself an extension", id, r.Title)
		}
	}
}

func TestIDsStableOrder(t *testing.T) {
	a := IDs()
	b := IDs()
	if len(a) != len(b) {
		t.Fatal("ID count unstable")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ID order unstable at %d: %s vs %s", i, a[i], b[i])
		}
	}
	if a[0] != "table1" {
		t.Fatalf("first id %q, want table1", a[0])
	}
}

func TestIDsSortsLaterRegistrations(t *testing.T) {
	for _, id := range []string{"x-gamma", "x-alpha", "x-beta"} {
		registerTemp(t, okRunner(id, 0))
	}
	want := IDs()
	if tail := want[len(want)-3:]; !slices.Equal(tail, []string{"x-alpha", "x-beta", "x-gamma"}) {
		t.Fatalf("later registrations listed as %v, want them last and sorted by id", tail)
	}
	for i := 0; i < 50; i++ {
		if got := IDs(); !slices.Equal(got, want) {
			t.Fatalf("call %d: IDs() = %v, want %v", i, got, want)
		}
	}
}

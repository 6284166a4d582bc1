package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"mtreescale/internal/valid"
)

func TestCheckpointJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := ProfileKey(Quick())
	ck, err := NewCheckpointer(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	resA := &Result{ID: "a", Title: "A", Notes: []string{"n1"}}
	resB := &Result{ID: "b", Title: "B"}
	ck.Append(key, "a", resA)
	ck.Append(key, "b", resB)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Simulate a crash mid-append: a torn trailing line must be tolerated.
	f, err := os.OpenFile(filepath.Join(dir, CheckpointFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"` + key + `","id":"c","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	done, err := LoadCheckpoints(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done["a"] == nil || done["b"] == nil {
		t.Fatalf("loaded %d records, want a and b", len(done))
	}
	if done["a"].Title != "A" || len(done["a"].Notes) != 1 {
		t.Fatalf("record a did not round-trip: %+v", done["a"])
	}

	// Records keyed to a different profile are invisible to a keyed load but
	// visible to LoadAllCheckpoints.
	otherKey := ProfileKey(Medium())
	other, err := LoadCheckpoints(dir, otherKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != 0 {
		t.Fatalf("wrong-profile load returned %d records", len(other))
	}
	all, err := LoadAllCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || len(all[key]) != 2 {
		t.Fatalf("LoadAllCheckpoints = %d keys (%d under ours)", len(all), len(all[key]))
	}

	// Not resuming truncates the journal.
	ck2, err := NewCheckpointer(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
	done, err = LoadCheckpoints(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("journal not truncated on fresh run: %d records", len(done))
	}
}

func TestLoadCheckpointsMissingJournal(t *testing.T) {
	done, err := LoadCheckpoints(t.TempDir(), "anykey")
	if err != nil || len(done) != 0 {
		t.Fatalf("missing journal: %v, %d records", err, len(done))
	}
}

func TestProfileKeyDistinguishesProfiles(t *testing.T) {
	q, m := Quick(), Medium()
	if ProfileKey(q) == ProfileKey(m) {
		t.Fatal("distinct profiles share a key")
	}
	nested := q
	nested.Nested = true
	if ProfileKey(q) == ProfileKey(nested) {
		t.Fatal("Nested does not change the checkpoint key")
	}
	if ProfileKey(q) != ProfileKey(Quick()) {
		t.Fatal("key not stable for identical profiles")
	}
}

// TestProfileKeysPinned pins the standard profiles' checkpoint keys:
// journals written under them, and mtsimd caches keyed by them, resume
// only while the keys hold, so a change to them must be deliberate.
func TestProfileKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		p   Profile
		key string
	}{
		{Quick(), "a7a8feafe8454b6288ae30cfeb496cae7a52903653a9a66492326cbbef79d771"},
		{Medium(), "880c531893c166ac5c35db9cf71e00f5b903bffdac3e8897c6338be0ead6e951"},
		{Paper(), "8da382668366372384b917b31cb3059c5a02d7b2a106aaf865be4faab7e0cf19"},
	} {
		if got := ProfileKey(tc.p); got != tc.key {
			t.Errorf("%s: ProfileKey %s, want %s", tc.p.Name, got, tc.key)
		}
	}
}

func TestParseCheckpointLineRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("{"),
		[]byte(`{"key":"k","id":"a","resu`),
		[]byte(`{"key":"","id":"a","result":{}}`),
		[]byte(`{"key":"k","id":"","result":{}}`),
		[]byte(`{"key":"k","id":"a"}`),
		[]byte(`[1,2,3]`),
	}
	for _, line := range cases {
		if _, err := ParseCheckpointLine(line); !valid.IsParam(err) {
			t.Errorf("ParseCheckpointLine(%q) err = %v, want valid.ErrParam", line, err)
		}
	}
	good := []byte(`{"key":"k","id":"a","result":{"ID":"a"}}`)
	rec, err := ParseCheckpointLine(good)
	if err != nil || rec.ID != "a" || rec.Key != "k" || rec.Result == nil {
		t.Fatalf("good line: %+v, %v", rec, err)
	}
}

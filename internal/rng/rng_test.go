package rng

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Intn(1<<30), b.Intn(1<<30); got != want {
			t.Fatalf("draw %d: %d != %d; same seed must give same stream", i, got, want)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	const draws = 1000
	for i := 0; i < draws; i++ {
		if a.Intn(1<<30) == b.Intn(1<<30) {
			same++
		}
	}
	if same > draws/100 {
		t.Fatalf("seeds 1 and 2 agreed on %d/%d draws; streams look correlated", same, draws)
	}
}

func TestMixNonNegative(t *testing.T) {
	f := func(seed int64) bool { return Mix(seed) >= 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixAdjacentSeedsDecorrelated(t *testing.T) {
	// Adjacent raw seeds must not map to adjacent mixed seeds.
	seen := make(map[int64]bool)
	for s := int64(0); s < 10000; s++ {
		m := Mix(s)
		if seen[m] {
			t.Fatalf("Mix collision at seed %d", s)
		}
		seen[m] = true
	}
}

func TestSplitChildStreamsIndependent(t *testing.T) {
	parent := int64(7)
	a := NewChild(parent, 0)
	b := NewChild(parent, 1)
	same := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			same++
		}
	}
	// Expect ~draws/1000 collisions for independent uniform streams.
	if same > draws/50 {
		t.Fatalf("child streams 0 and 1 agreed on %d/%d draws", same, draws)
	}
}

func TestSplitDistinctIDs(t *testing.T) {
	f := func(parent int64, i, j uint16) bool {
		if i == j {
			return true
		}
		return Split(parent, int64(i)) != Split(parent, int64(j))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSourceInterfaceSatisfied(t *testing.T) {
	var _ Source = New(0)
	var _ Source = rand.New(rand.NewSource(1))
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformityRough(t *testing.T) {
	// Chi-square-ish sanity check on Intn(10).
	r := New(11)
	var buckets [10]int
	const draws = 100000
	for i := 0; i < draws; i++ {
		buckets[r.Intn(10)]++
	}
	for b, c := range buckets {
		if c < draws/10-draws/50 || c > draws/10+draws/50 {
			t.Fatalf("bucket %d has %d of %d draws; distribution looks skewed", b, c, draws)
		}
	}
}

// The bulk draw methods promise exactly the Intn draw sequence — streams must
// be interchangeable between the loop forms.

func TestPermPrefix32MatchesIntnLoop(t *testing.T) {
	for _, m := range []int{0, 1, 7, 100, 500, 999, 1000} {
		a := make([]int32, 1000)
		b := make([]int32, 1000)
		for i := range a {
			a[i] = int32(i)
			b[i] = int32(i)
		}
		ra, rb := New(42), New(42)
		ra.PermPrefix32(a, m)
		for i := 0; i < m; i++ {
			j := i + rb.Intn(len(b)-i)
			b[i], b[j] = b[j], b[i]
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("m=%d: PermPrefix32 diverges from Intn loop at %d: %d != %d", m, i, a[i], b[i])
			}
		}
		// The generator state must also match: the next draws agree.
		if ra.Intn(1<<30) != rb.Intn(1<<30) {
			t.Fatalf("m=%d: post-shuffle states diverge", m)
		}
	}
}

func TestPermPrefix32Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PermPrefix32 with m > len(a) must panic")
		}
	}()
	New(1).PermPrefix32(make([]int32, 3), 4)
}

func TestFillBoundedMatchesIntnLoop(t *testing.T) {
	for _, tc := range []struct{ base, m int }{{0, 1}, {0, 64}, {990, 10}, {1, 777}} {
		dst := make([]int32, tc.m)
		ra, rb := New(7), New(7)
		ra.FillBounded(tc.base, dst)
		for k, got := range dst {
			want := int32(rb.Intn(tc.base + k + 1))
			if got != want {
				t.Fatalf("base=%d: FillBounded[%d] = %d, want %d", tc.base, k, got, want)
			}
		}
		if ra.Intn(1<<30) != rb.Intn(1<<30) {
			t.Fatalf("base=%d: post-fill states diverge", tc.base)
		}
	}
}

func TestFillIntnMatchesIntnLoop(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 1 << 20} {
		dst := make([]int32, 512)
		ra, rb := New(11), New(11)
		ra.FillIntn(n, dst)
		for k, got := range dst {
			if want := int32(rb.Intn(n)); got != want {
				t.Fatalf("n=%d: FillIntn[%d] = %d, want %d", n, k, got, want)
			}
		}
		if ra.Intn(1<<30) != rb.Intn(1<<30) {
			t.Fatalf("n=%d: post-fill states diverge", n)
		}
	}
}

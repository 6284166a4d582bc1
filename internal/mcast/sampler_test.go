package mcast

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mtreescale/internal/rng"
)

func TestSamplerExcludesSource(t *testing.T) {
	s, err := NewSampler(10, 3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Population() != 9 {
		t.Fatalf("population = %d", s.Population())
	}
	var buf []int32
	for trial := 0; trial < 100; trial++ {
		buf, err = s.WithReplacement(20, buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range buf {
			if v == 3 {
				t.Fatal("excluded site drawn")
			}
		}
	}
}

func TestSamplerIncludeAll(t *testing.T) {
	s, err := NewSampler(5, -1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Population() != 5 {
		t.Fatalf("population = %d", s.Population())
	}
}

func TestSamplerErrors(t *testing.T) {
	if _, err := NewSampler(0, -1, rng.New(1)); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := NewSampler(1, 0, rng.New(1)); err == nil {
		t.Fatal("excluding the only node must error")
	}
	if _, err := NewSiteSampler(nil, rng.New(1)); err == nil {
		t.Fatal("empty site list must error")
	}
	s, _ := NewSampler(5, -1, rng.New(1))
	if _, err := s.WithReplacement(-1, nil); err == nil {
		t.Fatal("negative n must error")
	}
	if _, err := s.Distinct(6, nil); err == nil {
		t.Fatal("m > population must error")
	}
	if _, err := s.Distinct(-1, nil); err == nil {
		t.Fatal("negative m must error")
	}
	if _, err := s.DistinctRejection(6, nil); err == nil {
		t.Fatal("rejection m > population must error")
	}
}

func TestDistinctIsDistinct(t *testing.T) {
	s, _ := NewSampler(50, -1, rng.New(5))
	var buf []int32
	for m := 0; m <= 50; m++ {
		var err error
		buf, err = s.Distinct(m, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != m {
			t.Fatalf("m=%d: got %d", m, len(buf))
		}
		seen := map[int32]bool{}
		for _, v := range buf {
			if seen[v] {
				t.Fatalf("m=%d: duplicate %d", m, v)
			}
			if v < 0 || v >= 50 {
				t.Fatalf("m=%d: out of range %d", m, v)
			}
			seen[v] = true
		}
	}
}

func TestDistinctFullPopulation(t *testing.T) {
	s, _ := NewSampler(20, 7, rng.New(3))
	buf, err := s.Distinct(19, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, v := range buf {
		seen[v] = true
	}
	if len(seen) != 19 || seen[7] {
		t.Fatalf("full draw wrong: %d distinct, excluded drawn: %v", len(seen), seen[7])
	}
}

func TestDistinctRejectionAgrees(t *testing.T) {
	// Both samplers must produce uniform distinct sets; compare coverage.
	f := func(seed int64, mRaw uint8) bool {
		n := 30
		m := int(mRaw)%n + 1
		s1, _ := NewSampler(n, -1, rng.New(seed))
		s2, _ := NewSampler(n, -1, rng.New(seed+1))
		a, err1 := s1.Distinct(m, nil)
		b, err2 := s2.DistinctRejection(m, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(a) != m || len(b) != m {
			return false
		}
		sa := map[int32]bool{}
		sb := map[int32]bool{}
		for i := range a {
			sa[a[i]] = true
			sb[b[i]] = true
		}
		return len(sa) == m && len(sb) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctUniformCoverage(t *testing.T) {
	// Each site should be drawn with roughly equal frequency.
	const n, m, trials = 20, 5, 20000
	s, _ := NewSampler(n, -1, rng.New(9))
	counts := make([]int, n)
	var buf []int32
	for trial := 0; trial < trials; trial++ {
		var err error
		buf, err = s.Distinct(m, buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range buf {
			counts[v]++
		}
	}
	want := float64(trials*m) / n
	for v, c := range counts {
		if float64(c) < want*0.9 || float64(c) > want*1.1 {
			t.Fatalf("site %d drawn %d times, want ≈ %.0f", v, c, want)
		}
	}
}

func TestWithReplacementLength(t *testing.T) {
	s, _ := NewSampler(10, -1, rng.New(1))
	buf, err := s.WithReplacement(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 1000 {
		t.Fatalf("len = %d", len(buf))
	}
	buf, err = s.WithReplacement(0, buf)
	if err != nil || len(buf) != 0 {
		t.Fatalf("n=0: len=%d err=%v", len(buf), err)
	}
}

func TestSiteSamplerCopiesInput(t *testing.T) {
	sites := []int32{1, 2, 3}
	s, err := NewSiteSampler(sites, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sites[0] = 99 // mutating the caller slice must not affect the sampler
	buf, _ := s.WithReplacement(100, nil)
	for _, v := range buf {
		if v == 99 {
			t.Fatal("sampler aliased caller slice")
		}
	}
}

func TestSamplerReset(t *testing.T) {
	s, err := NewSampler(10, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(6, 0, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	if s.Population() != 5 {
		t.Fatalf("population after reset = %d", s.Population())
	}
	buf, err := s.Distinct(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range buf {
		if v == 0 || v >= 6 {
			t.Fatalf("reset population leaked site %d", v)
		}
	}
	if err := s.Reset(0, -1, rng.New(1)); err == nil {
		t.Fatal("n=0 reset must error")
	}
	if err := s.Reset(1, 0, rng.New(1)); err == nil {
		t.Fatal("empty reset population must error")
	}
	if err := s.Reset(5, -1, nil); err == nil {
		t.Fatal("nil source must error")
	}
}

func TestSamplerDrawsDoNotAllocate(t *testing.T) {
	// The epoch-stamped scratch set means steady-state draws are
	// allocation-free on every path (Floyd, Fisher-Yates, with replacement,
	// and the rejection reference).
	s, _ := NewSampler(1000, -1, rng.New(4))
	buf := make([]int32, 0, 1000)
	warm := func(f func()) float64 {
		f() // grow scratch once
		return testing.AllocsPerRun(20, f)
	}
	if n := warm(func() { buf, _ = s.Distinct(10, buf) }); n != 0 {
		t.Fatalf("Floyd path allocates %.1f/op", n)
	}
	if n := warm(func() { buf, _ = s.Distinct(900, buf) }); n != 0 {
		t.Fatalf("Fisher-Yates path allocates %.1f/op", n)
	}
	if n := warm(func() { buf, _ = s.DistinctRejection(10, buf) }); n != 0 {
		t.Fatalf("DistinctRejection allocates %.1f/op", n)
	}
	if n := warm(func() { buf, _ = s.WithReplacement(100, buf) }); n != 0 {
		t.Fatalf("WithReplacement allocates %.1f/op", n)
	}
}

func TestLogSpacedSizes(t *testing.T) {
	sizes := LogSpacedSizes(1000, 10)
	if len(sizes) == 0 || sizes[0] != 1 || sizes[len(sizes)-1] != 1000 {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("not strictly increasing: %v", sizes)
		}
	}
	if got := LogSpacedSizes(5, 100); len(got) != 5 {
		t.Fatalf("clamped sizes = %v", got)
	}
	if got := LogSpacedSizes(0, 5); got != nil {
		t.Fatalf("max=0 must be nil, got %v", got)
	}
	if got := LogSpacedSizes(7, 1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("count=1: %v", got)
	}
}

// scriptedSource is a Source that is not a *rng.Rand, so a Sampler over it
// takes the generic draw loops: it plays a fixed linear congruential script.
type scriptedSource struct{ x uint64 }

func (s *scriptedSource) Intn(n int) int {
	s.x = s.x*6364136223846793005 + 1442695040888963407
	return int(s.x >> 33 % uint64(n))
}

func (s *scriptedSource) Float64() float64 { return float64(s.Intn(1<<30)) / (1 << 30) }

func (s *scriptedSource) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

func (s *scriptedSource) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// TestSamplerOwesWholeDraws checks the draws whole leaves owed: after
// whole(k), every draw method must return exactly what a sampler that made
// the k Distinct(Population()) draws returns, twice in a row, on the
// *rng.Rand paths and on a scripted Source's generic loops; whole must hand
// back the population; and Reset must drop the debt.
func TestSamplerOwesWholeDraws(t *testing.T) {
	const n, exclude = 50, 7
	streams := []struct {
		name string
		src  func() rng.Source
	}{
		{"rng.Rand", func() rng.Source { return rng.New(11) }},
		{"scripted", func() rng.Source { return &scriptedSource{x: 11} }},
	}
	draws := []struct {
		name string
		draw func(s *Sampler) ([]int32, error)
	}{
		{"Distinct/Floyd", func(s *Sampler) ([]int32, error) { return s.Distinct(5, nil) }},
		{"Distinct/Fisher-Yates", func(s *Sampler) ([]int32, error) { return s.Distinct(40, nil) }},
		{"Distinct/whole", func(s *Sampler) ([]int32, error) { return s.Distinct(n-1, nil) }},
		{"WithReplacement", func(s *Sampler) ([]int32, error) { return s.WithReplacement(30, nil) }},
		{"DistinctRejection", func(s *Sampler) ([]int32, error) { return s.DistinctRejection(10, nil) }},
	}
	newSampler := func(t *testing.T, src rng.Source) *Sampler {
		t.Helper()
		s, err := NewSampler(n, exclude, src)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	same := func(t *testing.T, what string, owing, paying *Sampler, draw func(*Sampler) ([]int32, error)) {
		t.Helper()
		for round := 0; round < 2; round++ {
			got, err := draw(owing)
			if err != nil {
				t.Fatal(err)
			}
			want, err := draw(paying)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, draw %d: %v, want %v", what, round, got, want)
			}
		}
	}
	for _, st := range streams {
		for _, d := range draws {
			for _, k := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", st.name, d.name, k), func(t *testing.T) {
					owing, paying := newSampler(t, st.src()), newSampler(t, st.src())
					all := owing.whole(k)
					if len(all) != n-1 || slices.Contains(all, exclude) {
						t.Fatalf("whole returned %v, want the %d sites other than %d", all, n-1, exclude)
					}
					sorted := slices.Clone(all)
					slices.Sort(sorted)
					for i := 0; i < k; i++ {
						set, err := paying.Distinct(paying.Population(), nil)
						if err != nil {
							t.Fatal(err)
						}
						slices.Sort(set)
						if !reflect.DeepEqual(set, sorted) {
							t.Fatalf("Distinct(Population()) drew %v, not the population %v", set, all)
						}
					}
					same(t, "after whole", owing, paying, d.draw)
					// Reset drops the debt: the reset sampler draws what a
					// fresh one draws.
					owing.whole(k)
					if err := owing.Reset(n, exclude, st.src()); err != nil {
						t.Fatal(err)
					}
					same(t, "after Reset", owing, newSampler(t, st.src()), d.draw)
				})
			}
		}
	}
}

// DistinctRejection draws m distinct sites by rejection resampling: the
// reference implementation the tests and the sampling ablation compare
// Distinct, the production path, against.
func (s *Sampler) DistinctRejection(m int, dst []int32) ([]int32, error) {
	s.settle()
	M := len(s.sites)
	if m < 0 || m > M {
		return nil, fmt.Errorf("mcast: cannot draw %d distinct sites from %d", m, M)
	}
	s.stamp()
	dst = dst[:0]
	for len(dst) < m {
		idx := s.r.Intn(M)
		if s.mark[idx] != s.epoch {
			s.mark[idx] = s.epoch
			dst = append(dst, s.sites[idx])
		}
	}
	return dst, nil
}

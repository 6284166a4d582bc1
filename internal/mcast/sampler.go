package mcast

import (
	"fmt"
	"math"

	"mtreescale/internal/rng"
)

// Sampler draws receiver sets from a site population. The population is
// either all nodes of a graph except the source (the paper's general-network
// experiments) or the leaves of a k-ary tree (§3).
//
// All scratch state (the distinct-draw shuffle buffer and the epoch-stamped
// membership marks) is reused across draws and across Reset calls, so a
// long-lived Sampler allocates nothing on the hot path. A Sampler is not
// safe for concurrent use.
type Sampler struct {
	r rng.Source
	// rr is r when it is a concrete *rng.Rand (every production stream is):
	// the hot draw loops use it for static dispatch and an inlined bounded
	// draw. nil when a test supplies a scripted Source.
	rr *rng.Rand
	// sites is the population to draw from.
	sites []int32
	// buf is scratch for the Fisher-Yates distinct path.
	buf []int32
	// draws is scratch for the bulk-drawn index sequences of the Floyd and
	// with-replacement paths.
	draws []int32
	// mark implements an O(1)-clear scratch set over site indices:
	// mark[i] == epoch means index i is stamped for the current draw.
	mark  []int32
	epoch int32
	// owed counts the whole-population Distinct draws that whole skipped.
	// Their stream steps are still to be taken: every draw method takes them
	// first (settle), so later sets see the stream a sampler that made the
	// draws would. Reset drops them.
	owed int
}

// NewSampler builds a sampler over the population {0..n-1} \ {exclude}.
// Pass exclude < 0 to include every node.
func NewSampler(n int, exclude int, r rng.Source) (*Sampler, error) {
	s := &Sampler{}
	if err := s.Reset(n, exclude, r); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset repopulates the sampler over {0..n-1} \ {exclude} with a new random
// stream, reusing all internal scratch storage. It lets one Sampler serve
// many (source, stream) pairs without per-source allocation.
func (s *Sampler) Reset(n int, exclude int, r rng.Source) error {
	if n <= 0 {
		return fmt.Errorf("mcast: sampler needs n > 0, got %d", n)
	}
	if r == nil {
		return fmt.Errorf("mcast: sampler needs a random source")
	}
	s.r = r
	s.rr, _ = r.(*rng.Rand)
	s.owed = 0
	s.sites = grow(s.sites, n)[:0]
	for v := 0; v < n; v++ {
		if v != exclude {
			s.sites = append(s.sites, int32(v))
		}
	}
	if len(s.sites) == 0 {
		return fmt.Errorf("mcast: empty site population")
	}
	return nil
}

// NewSiteSampler builds a sampler over an explicit site list (e.g. the
// leaves of a k-ary tree).
func NewSiteSampler(sites []int32, r rng.Source) (*Sampler, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("mcast: empty site population")
	}
	rr, _ := r.(*rng.Rand)
	return &Sampler{r: r, rr: rr, sites: append([]int32(nil), sites...)}, nil
}

// Population returns the number of candidate sites (the paper's M).
func (s *Sampler) Population() int { return len(s.sites) }

// whole stands in for n draws of Distinct(Population()): each of them
// returns the whole population, in an order no count depends on, so the
// engines count the population once instead of drawing it n times. It
// returns the population, which the caller must not modify, and records the
// n draws as owed; the next draw of any kind takes their stream steps first
// (settle), and Reset drops them, so a source whose grid ends at the
// population never takes them.
func (s *Sampler) whole(n int) []int32 {
	s.owed += n
	return s.sites
}

// settle takes the stream steps of the draws whole skipped, each by the
// shuffle Distinct(Population()) runs.
func (s *Sampler) settle() {
	for ; s.owed > 0; s.owed-- {
		s.shuffled(len(s.sites))
	}
}

// shuffled runs the first m steps of a Fisher-Yates shuffle on a scratch
// copy of the population and returns the copy, whose first m sites are then
// a uniform distinct sample.
func (s *Sampler) shuffled(m int) []int32 {
	M := len(s.sites)
	s.buf = grow(s.buf, M)
	copy(s.buf, s.sites)
	buf := s.buf
	if rr := s.rr; rr != nil {
		rr.PermPrefix32(buf, m)
		return buf
	}
	for i := 0; i < m; i++ {
		j := i + s.r.Intn(M-i)
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// stamp starts a new draw epoch, growing the mark array to the current
// population if needed. Clearing the set is an integer increment; the array
// is only re-zeroed on the (practically unreachable) epoch wrap. Growth keeps
// the epoch running: every stamp already in the array is below the next one.
func (s *Sampler) stamp() {
	M := len(s.sites)
	if len(s.mark) < M {
		s.mark = grow(s.mark, M)
	}
	if s.epoch == math.MaxInt32 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
}

// WithReplacement draws n sites uniformly with replacement (the paper's
// L̄(n) protocol) into dst, growing it as needed, and returns it.
func (s *Sampler) WithReplacement(n int, dst []int32) ([]int32, error) {
	s.settle()
	if n < 0 {
		return nil, fmt.Errorf("mcast: negative sample size %d", n)
	}
	dst = dst[:0]
	if rr, sites := s.rr, s.sites; rr != nil {
		// Bulk-draw the site indices (identical to n Intn draws), then gather.
		s.draws = grow(s.draws, n)
		draws := s.draws
		rr.FillIntn(len(sites), draws)
		for _, t := range draws {
			dst = append(dst, sites[t])
		}
		return dst, nil
	}
	for i := 0; i < n; i++ {
		dst = append(dst, s.sites[s.r.Intn(len(s.sites))])
	}
	return dst, nil
}

// Distinct draws m distinct sites uniformly (the paper's L(m) protocol) into
// dst and returns it. It errors when m exceeds the population.
//
// For small m it uses Floyd's algorithm (O(m) expected); once m approaches
// the population size it switches to a partial Fisher-Yates shuffle, which
// is O(population) but has no rejection blow-up.
func (s *Sampler) Distinct(m int, dst []int32) ([]int32, error) {
	s.settle()
	M := len(s.sites)
	if m < 0 || m > M {
		return nil, fmt.Errorf("mcast: cannot draw %d distinct sites from %d", m, M)
	}
	dst = dst[:0]
	if m == 0 {
		return dst, nil
	}
	if m*4 >= M {
		// Partial Fisher-Yates over a scratch copy.
		return append(dst, s.shuffled(m)[:m]...), nil
	}
	// Floyd's sampling: for j = M-m .. M-1 pick t in [0..j]; take t unless
	// already taken, else take j. The "taken" set is the epoch-stamped mark
	// array, so the draw allocates nothing.
	s.stamp()
	if rr := s.rr; rr != nil {
		// Bulk-draw Floyd's index sequence (identical to the Intn(j+1) loop),
		// then run the membership logic over the drawn indices.
		s.draws = grow(s.draws, m)
		draws := s.draws
		rr.FillBounded(M-m, draws)
		mark, epoch, sites := s.mark, s.epoch, s.sites
		for k, pick := range draws {
			if mark[pick] == epoch {
				pick = int32(M - m + k)
			}
			mark[pick] = epoch
			dst = append(dst, sites[pick])
		}
		return dst, nil
	}
	for j := M - m; j < M; j++ {
		t := int32(s.r.Intn(j + 1))
		pick := t
		if s.mark[pick] == s.epoch {
			pick = int32(j)
		}
		s.mark[pick] = s.epoch
		dst = append(dst, s.sites[pick])
	}
	return dst, nil
}

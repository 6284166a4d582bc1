package mtreescale_test

// The large-graph smoke test: a ~1M-node transit-stub streamed straight into
// the CSR builder, the memory model asserted against the streaming claim
// (peak retained heap stays within ~2x the final CSR — no intermediate edge
// list), then one L(m) curve point measured on it.
//
// Gated behind MTREESCALE_LARGE_SMOKE=1 (`make large-smoke`, run by `make
// check` and CI) so plain `go test ./...` stays fast.

import (
	"os"
	"runtime"
	"testing"

	mtreescale "mtreescale"
)

func TestLargeGraphSmoke(t *testing.T) {
	if os.Getenv("MTREESCALE_LARGE_SMOKE") == "" {
		t.Skip("set MTREESCALE_LARGE_SMOKE=1 (or run `make large-smoke`) to enable")
	}
	const n = 1_000_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	g, err := mtreescale.TransitStubStreamed(n, 4.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != n {
		t.Fatalf("N = %d, want %d", g.N(), n)
	}

	// Memory model. Live heap beyond the baseline is the CSR itself (plus
	// small builder leftovers): the streaming path never held an edge list,
	// which at this size would alone exceed the CSR. The 2x bound leaves room
	// for the count-pass arrays; the fixed slack absorbs allocator noise.
	runtime.GC()
	runtime.ReadMemStats(&after)
	csr := g.MemBytes()
	live := int64(after.HeapInuse) - int64(before.HeapInuse)
	if limit := 2*csr + 32<<20; live > limit {
		t.Errorf("retained heap after streamed build = %d B, want <= %d (CSR %d B)", live, limit, csr)
	}
	t.Logf("streamed 1M-node build: CSR %.1f MB, retained heap delta %.1f MB",
		float64(csr)/(1<<20), float64(live)/(1<<20))

	// One curve point: the engine runs at this scale and measures a tree.
	sizes := []int{64}
	p := mtreescale.Protocol{NSource: 2, NRcvr: 2, Seed: 5, BatchBFS: true}
	pts, err := mtreescale.MeasureCurve(g, sizes, mtreescale.Distinct, p)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].MeanLinks <= 0 {
		t.Fatalf("degenerate curve point %+v", pts[0])
	}
}

// Package mtreescale reproduces "Scaling of Multicast Trees: Comments on
// the Chuang-Sirbu Scaling Law" (Phillips, Shenker, Tangmunarunkit, SIGCOMM
// 1999) as a Go library.
//
// The paper studies L(m): the number of links in a source-rooted
// shortest-path multicast tree reaching m random receivers. Chuang and Sirbu
// observed empirically that L(m) ∝ m^0.8 across very different topologies;
// this paper derives the exact form for k-ary trees, shows the asymptotic
// L̄(n) ≈ n(c − ln(n/M)/ln k) is degree-independent up to constants, and
// argues that any network with an exponentially growing reachability
// function S(r) obeys the same form — a candidate explanation for the law's
// universality.
//
// The library provides:
//
//   - Topology generation: k-ary trees, GT-ITM style flat random and
//     transit-stub networks, TIERS style hierarchies, Waxman and
//     preferential-attachment graphs, and deterministic substitutes for the
//     paper's four real maps (ARPA, MBone, Internet, AS). See
//     GenerateTopology and the constructors.
//
//   - The Monte-Carlo measurement engine of the paper's §2: MeasureCurve
//     runs the Nsource×Nrcvr protocol and returns normalized tree-size
//     points. Extensions measure shared (core-based) trees
//     (MeasureSharedCurve), footnote 4's topology ensembles
//     (MeasureEnsemble), length-weighted costs (MeasureWeightedCurve),
//     Steiner-tree baselines (SteinerTreeSize) and trees maintained under
//     membership churn (MeasureChurn, DynTree).
//
//   - The closed-form k-ary theory of §3 and §5 (AnalyticTree): exact
//     Equations 4 and 21, discrete derivatives, the h(x) diagnostic,
//     asymptotics, the n↔m conversion, and extreme affinity/disaffinity.
//
//   - Reachability analysis of §4 (MeasureReachability, Reachability):
//     S(r), T(r), expected tree sizes driven purely by reachability
//     (Equations 23 and 30), growth classification, and the synthetic
//     models of Figure 8.
//
//   - The affinity model of §5 (NewAffinityTreeModel, EstimateAffinity):
//     Metropolis sampling of W_α(β) ∝ exp(−β·d̂(α)).
//
//   - Scaling-law fitting and pricing (Curve, Pricing): fit the
//     Chuang-Sirbu exponent or the paper's logarithmic-correction form to
//     any measured curve, and apply the cost-based pricing policy that
//     motivated the original law.
//
//   - A complete experiment registry (RunExperiment, ListExperiments)
//     reproducing every table and figure in the paper, with Markdown
//     reports (WriteReport) and CSV/gnuplot/ASCII rendering.
//
// The command-line tools topogen, reachcalc and treecalc are built on this
// package. The binaries that schedule, serve, shard and benchmark runs
// (mtsim, mtsimd, mtctl and benchjson) use the internal packages directly,
// so their checkpoint journals, scheduler options, quarantine, fault
// injection and cluster workers are not part of this API.
//
// # Quick start
//
//	g, err := mtreescale.GenerateTopology("ts1000")
//	if err != nil { ... }
//	sizes := mtreescale.LogSpacedSizes(500, 12)
//	pts, err := mtreescale.MeasureCurve(g, sizes, mtreescale.Distinct,
//		mtreescale.DefaultProtocol(42))
//	if err != nil { ... }
//	fit, err := mtreescale.CurveFromPoints(pts).FitChuangSirbu()
//	fmt.Printf("exponent: %.3f\n", fit.Exponent) // ≈ 0.8
//
// All randomness is seed-deterministic: the same inputs always produce the
// same outputs, independent of GOMAXPROCS.
package mtreescale

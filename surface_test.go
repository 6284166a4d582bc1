package mtreescale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// rootAPI is the package's exported surface, sorted. A change to it is a
// change to the public API: edit this list in the same commit.
var rootAPI = []string{
	"ARPA", "ASCIIOptions", "AffinityChain", "AffinityEstimate",
	"AffinityGraphChain", "AffinityParams", "AffinityTreeModel", "AnalyticTree",
	"BatchSPTs", "CalibratedPricing",
	"ChuangSirbuExponent", "ChuangSirbuReference", "ChurnBounded",
	"ChurnConfig", "ChurnResult", "ChurnSPT", "ChurnShared", "ChurnVariant",
	"ClusterCoordinator", "ClusterCurve", "ClusterGrid", "ClusterMerged",
	"ClusterOptions", "ClusterPartial", "ClusterShardPath", "ClusterShardSpec",
	"Comparison", "ComputeMetrics", "CoreCenter", "CoreRandom", "CoreSource",
	"CoreStrategy", "Curve", "CurveFromPoints", "DefaultPricing",
	"DefaultProtocol", "Distinct", "DynTree", "ErrInvalidParam",
	"EstimateAffinity", "ExecuteClusterShard", "ExpectedDistinct",
	"ExperimentIDs", "ExperimentListing", "Figure", "GNP", "GenerateTopology",
	"GenerateTopologyCached", "GenerateTopologyCachedOpt",
	"GenerateTopologySeeded", "GeneratedTopologies", "GeoTopology", "Grid",
	"GrowthClass", "GrowthExponential", "GrowthSubExponential",
	"GrowthSuperExponential", "HomogeneousRandom", "Increments",
	"IntegratedAutocorrTime", "KAryTree", "ListExperiments", "LogSpacedSizes",
	"MeasureChurn", "MeasureChurnCtx", "MeasureCurve", "MeasureCurveCtx",
	"MeasureEnsemble", "MeasureEnsembleCtx", "MeasureIncrements",
	"MeasureReachability", "MeasureSharedCurve", "MeasureSharedCurveCtx",
	"MeasureWeightedCurve", "MediumProfile", "MergeClusterPartials", "Metrics",
	"Mode", "NewAffinityGraphChain", "NewAffinityTreeModel",
	"NewClusterCoordinator", "NewDynTree", "NewKAryTree", "NewTopologyBuilder",
	"NewTreeCounter", "NewWeightedTopology", "PSTFit", "PaperProfile",
	"ParseSessionDist", "PlanCluster", "Point", "PreferentialAttachment",
	"Pricing", "Profile", "ProfileByName",
	"Protocol", "QuickProfile", "Reachability", "ReachabilityFigure8Models",
	"ReadTopology", "RealTopologies", "RenderASCII", "RenderReport",
	"RequiredDraws", "ResetSPTCache", "ResetTopologyCache", "Result",
	"RunClusterLocal", "RunExperiment", "RunExperimentCtx", "SPT", "SPTBatch",
	"SPTCacheInfo", "SPTCacheStats", "Series", "SessionDist", "SessionExp",
	"SessionFixed", "SessionPareto", "SetSPTCacheLimit",
	"SetTopologyCacheLimit", "SharedPoint", "StandardTopologies", "SteinerEdge",
	"SteinerTree", "SteinerTreeSize", "TiersSized", "Topology",
	"TopologyBuilder", "TopologyCacheInfo", "TopologyCacheStats",
	"TransitStubSized", "TreeCounter", "Waxman",
	"WaxmanGeo", "WeightedPoint", "WeightedTopology", "WithReplacement",
	"WriteFigureCSV", "WriteFigureGnuplot", "WriteReport", "WriteReportCtx",
	"WriteTopology",
}

// TestRootAPISurface pins the exported top-level names of the package's
// non-test files to rootAPI, so API growth or loss shows up as a diff.
func TestRootAPISurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.IsSorted(rootAPI) {
		t.Fatal("rootAPI is not sorted")
	}
	var added, removed []string
	for _, n := range got {
		if _, found := slices.BinarySearch(rootAPI, n); !found {
			added = append(added, n)
		}
	}
	for _, n := range rootAPI {
		if _, found := slices.BinarySearch(got, n); !found {
			removed = append(removed, n)
		}
	}
	if len(added) > 0 || len(removed) > 0 {
		t.Errorf("exported names changed (%d now, %d pinned)\nadded:   %v\nremoved: %v",
			len(got), len(rootAPI), added, removed)
	}
}

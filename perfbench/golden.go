package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
)

// goldenJSON holds the sha256 of every result each workload produces for
// every input set, computed from the untraced entry points by -write-golden.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	// Profile is profileKey of the profile the digests were computed under.
	Profile string `json:"profile"`
	// Results maps workload -> input set -> result name -> sha256 hex.
	Results map[string][]map[string]string `json:"results"`
}

func loadGolden(b []byte) (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// forRun returns the digests one run verifies against; empty if none.
func (g *goldenFile) forRun(workload string, set int) map[string]string {
	sets := g.Results[workload]
	if set >= len(sets) {
		return nil
	}
	return sets[set]
}

// writeGoldenFile runs every workload once per input set through the
// untraced path (shards through a real worker, checked against the
// single-process reference) and writes the digests of their results.
func writeGoldenFile(ctx context.Context, path, mtsimd string, procs int, log io.Writer) error {
	g := goldenFile{Profile: profileKey(benchProfile(0)), Results: map[string][]map[string]string{}}
	for _, name := range workloadOrder {
		w := workloads[name]
		for set := 0; set < inputSets; set++ {
			b := &bench{prof: benchProfile(set), mtsimd: mtsimd, procs: procs}
			got, err := b.once(ctx, w)
			if err != nil {
				return fmt.Errorf("%s input set %d: %w", name, set, err)
			}
			digests := map[string]string{}
			for k, v := range got {
				digests[k] = digest(v)
			}
			if w.final != nil {
				ref, err := w.final(ctx, b)
				if err != nil {
					return fmt.Errorf("%s input set %d reference: %w", name, set, err)
				}
				for k, v := range ref {
					if digests[k] != digest(v) {
						return fmt.Errorf("%s input set %d: %s differs from the single-process reference", name, set, k)
					}
				}
			}
			g.Results[name] = append(g.Results[name], digests)
			fmt.Fprintf(log, "golden %s set %d: %d results\n", name, set, len(digests))
		}
	}
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// once runs one untimed, untraced iteration and returns its results.
func (b *bench) once(ctx context.Context, w *workload) (map[string][]byte, error) {
	if w.prepare != nil {
		if err := w.prepare(ctx, b); err != nil {
			return nil, err
		}
	}
	if err := w.setup(ctx, b); err != nil {
		return nil, err
	}
	got, err := w.run(ctx, b)
	if w.teardown != nil {
		if terr := w.teardown(b); err == nil {
			err = terr
		}
	}
	return got, err
}

// buildCommit is the VCS revision the binary was built from, when the build
// saw one.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

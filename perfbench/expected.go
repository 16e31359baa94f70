package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/harness"
	"repro/internal/ir"
)

// recordExpected regenerates the expected-results files the workloads
// check against: every figure cell's modeled per-iteration time, and the
// sequential interpreter's final-store hashes for the native programs at
// the default seed. Run it only at a commit whose outputs are known good.
func recordExpected(dir string, log io.Writer) error {
	figs := figuresFile{Cells: map[string]int64{}}
	for _, a := range harness.Apps() {
		series, err := harness.RunFigure(a, figNodes, nil)
		if err != nil {
			return err
		}
		for _, s := range series {
			for _, p := range s.Points {
				if p.Err != "" {
					return fmt.Errorf("%s: %s", cellKey(a.Name, s.System, p.Nodes), p.Err)
				}
				figs.Cells[cellKey(a.Name, s.System, p.Nodes)] = int64(p.PerIter)
			}
		}
		fmt.Fprintf(log, "recorded figure %d\n", a.Figure)
	}
	nat := nativeFile{Iters: nativeIters, Seed: defaultSeed, Hashes: map[string]string{}}
	for _, na := range nativeApps {
		prog, _ := na.build(defaultSeed)
		nat.Hashes[na.name] = storeHash(ir.ExecSequential(prog).Stores)
		fmt.Fprintf(log, "recorded native %s\n", na.name)
	}
	if err := writeJSON(filepath.Join(dir, "figures.json"), figs); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "native.json"), nat)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

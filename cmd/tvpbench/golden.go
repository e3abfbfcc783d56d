package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenSeed1 holds, per workload, a digest of every result a seed-1 run
// at full scale produces: each simulation pair's statistics, the rendered
// report, and each tvpd record. Regenerate an entry with
// `go run . -workload <name> -update testdata/golden_seed1.json`.
//
//go:embed testdata/golden_seed1.json
var goldenSeed1 []byte

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the digested values are plain counter structs
	}
	return digest(b)
}

// checkGolden compares a full-scale seed-1 run's digests with the golden
// file, or with -update rewrites the workload's entry. A run shorter than
// the golden one checks the results it produced.
func (b *bench) checkGolden() error {
	if b.opt.seed != 1 || b.opt.scale != 1 {
		return nil
	}
	data := goldenSeed1
	if b.opt.update != "" {
		var err error
		if data, err = os.ReadFile(b.opt.update); err != nil {
			return err
		}
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		return fmt.Errorf("golden file: %w", err)
	}
	if b.opt.update != "" {
		g[b.opt.workload] = b.out.digests
		data, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(b.opt.update, append(data, '\n'), 0o644)
	}
	want := g[b.opt.workload]
	ids := make([]string, 0, len(b.out.digests))
	for id := range b.out.digests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	checked := 0
	for _, id := range ids {
		w, ok := want[id]
		if !ok {
			continue
		}
		checked++
		b.out.check(w == b.out.digests[id], "%s: digest %s, golden %s", id, b.out.digests[id], w)
	}
	b.out.check(checked > 0, "golden file has no result of this run")
	b.out.addInfo("golden.checked", float64(checked), "count")
	return nil
}

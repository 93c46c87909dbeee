package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/provmark"
	"provmark/internal/wire"
)

// goldenJSON holds the digest of every cell's time-stripped wire
// result, computed sequentially at one worker by --update-golden.
// Runs at nproc workers, traced or not, must reproduce it exactly.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	// Suite maps "tool/benchmark" of each Table 2 cell to its digest.
	Suite map[string]string `json:"suite"`
	// Jobs maps "tool/scaleN" of each jobs-workload cell to its digest.
	Jobs map[string]string `json:"jobs"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func cellName(tool, benchmark string) string { return tool + "/" + benchmark }

// resultDigest hashes a result's canonical wire encoding with its
// stage times zeroed, the only part of a result that varies by run.
func resultDigest(r *wire.Result) (string, error) {
	if r == nil {
		return "", fmt.Errorf("no result")
	}
	v := *r
	v.Times = wire.StageTimes{}
	data, err := wire.EncodeResult(&v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}

// checkDigest compares a result against its golden digest.
func checkDigest(want map[string]string, key string, r *wire.Result) error {
	got, err := resultDigest(r)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if w, ok := want[key]; !ok || w != got {
		return fmt.Errorf("%s: digest %s, golden %q", key, got, w)
	}
	return nil
}

// writeGolden recomputes every digest sequentially, one pipeline run
// at a time, and writes golden.json.
func writeGolden(ctx context.Context, path string) error {
	g := golden{Suite: map[string]string{}, Jobs: map[string]string{}}
	cells, err := suiteCells()
	if err != nil {
		return err
	}
	cls := provmark.NewClassifier()
	for _, c := range cells {
		res, err := provmark.New(c.rec, provmark.WithClassifier(cls)).RunContext(ctx, c.prog)
		if err != nil {
			return fmt.Errorf("%s: %w", cellName(c.tool, c.prog.Name), err)
		}
		if g.Suite[cellName(c.tool, c.prog.Name)], err = resultDigest(provmark.ToWire(res)); err != nil {
			return err
		}
	}
	for _, tool := range tools {
		rec, err := capture.Open(tool, capture.Options{Fast: true})
		if err != nil {
			return err
		}
		for n := scaleMin; n <= scaleMax; n++ {
			prog, err := benchprog.ScaleScenario(n).Compile()
			if err != nil {
				return err
			}
			res, err := provmark.New(rec, provmark.WithClassifier(provmark.NewClassifier())).RunContext(ctx, prog)
			if err != nil {
				return fmt.Errorf("%s: %w", cellName(tool, prog.Name), err)
			}
			if g.Jobs[cellName(tool, prog.Name)], err = resultDigest(provmark.ToWire(res)); err != nil {
				return err
			}
		}
	}
	data, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

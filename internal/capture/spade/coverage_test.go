package spade

import (
	"context"
	"testing"

	"provmark/internal/benchprog"
)

// TestAllBenchmarksRecord exercises every per-call handler: each
// Table 2 benchmark and failure case records and transforms cleanly.
func TestAllBenchmarksRecord(t *testing.T) {
	rec := New(DefaultConfig())
	var progs []benchprog.Program
	for _, name := range benchprog.Names() {
		p, _ := benchprog.ByName(name)
		progs = append(progs, p)
	}
	progs = append(progs, benchprog.FailureCases()...)
	progs = append(progs, benchprog.ScaleProgram(3), benchprog.RepeatedReads(3), benchprog.PrivilegeEscalation())
	for _, prog := range progs {
		for _, v := range []benchprog.Variant{benchprog.Background, benchprog.Foreground} {
			n, err := rec.Record(context.Background(), prog, v, 0)
			if err != nil {
				t.Errorf("%s/%s: %v", prog.Name, v, err)
				continue
			}
			if _, err := rec.Transform(n); err != nil {
				t.Errorf("%s/%s transform: %v", prog.Name, v, err)
			}
		}
	}
}

// TestAllBenchmarksRecordCamFlowReporter repeats the sweep under the
// spc configuration, exercising every LSM-side handler.
func TestAllBenchmarksRecordCamFlowReporter(t *testing.T) {
	rec := New(camflowReporterConfig())
	for _, name := range benchprog.Names() {
		prog, _ := benchprog.ByName(name)
		n, err := rec.Record(context.Background(), prog, benchprog.Foreground, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := rec.Transform(n); err != nil {
			t.Errorf("%s transform: %v", name, err)
		}
	}
}

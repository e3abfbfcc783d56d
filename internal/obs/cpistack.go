package obs

import (
	"encoding/json"
	"fmt"

	"repro/internal/isa"
	"repro/internal/stats"
)

// CPI-stack observation: the obs side of the top-down cycle accounting
// layer (internal/pipeline/cpistack.go computes the stack; this file
// receives it). Attaching a Telemetry as the pipeline's Probe arms the
// accounting, and every RunRecord it assembles carries:
//
//   - RunRecord.CPI — the post-warmup commit-slot totals per bucket
//     (exactly Totals.Cycles × CommitWidth slots);
//   - Sample.CPIDelta — the per-interval slot deltas (they sum to
//     RunRecord.CPI), the per-phase bottleneck time series;
//   - Attribution.CommitStalls — idle commit slots charged to the
//     instruction that was blocking the ROB head, weighted by slots.
//
// This is the schema v2 payload; DecodeRunRecord below reads both v2 and
// the pre-CPI v1.

// CPISample consumes one CPI-stack snapshot at a sampling boundary
// (delivered immediately before the matching Sample call).
func (t *Telemetry) CPISample(committed, cycle uint64, cs *stats.CPIStack) {
	t.cpi = *cs
	t.sampler.ObserveCPI(cs)
}

// CommitStall attributes idle commit slots to the blocking instruction
// at pc.
func (t *Telemetry) CommitStall(pc uint64, in *isa.Inst, slots uint64) {
	t.commitStall.Add(pc, in, slots)
}

// DecodeRunRecord parses a versioned RunRecord, accepting the current v2
// schema and the legacy v1 (whose records predate the CPI block; their
// CPI, CPIDelta and CommitStalls fields decode as zero/empty). Records
// with a missing or unknown schema are rejected rather than silently
// misread.
func DecodeRunRecord(data []byte) (*RunRecord, error) {
	var rec RunRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("obs: run record: %w", err)
	}
	switch rec.Schema {
	case RunSchema, RunSchemaV1:
		return &rec, nil
	case "":
		return nil, fmt.Errorf("obs: run record missing schema field")
	default:
		return nil, fmt.Errorf("obs: unsupported run record schema %q (supported: %s, %s)",
			rec.Schema, RunSchema, RunSchemaV1)
	}
}

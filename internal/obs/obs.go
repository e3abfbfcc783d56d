// Package obs is the simulator telemetry layer. It turns a timing run
// from a single block of end-of-run totals into observable execution
// evidence, in four pieces:
//
//   - interval sampling: a Sampler snapshots the live stats.Sim counters
//     every N committed instructions (DefaultInterval = 100k) and emits a
//     per-run time series of IPC, branch MPKI, VP coverage/accuracy/flush
//     rate, cache MPKI and rename-elimination rates, so phase behavior
//     within a simulation point is visible;
//   - per-PC attribution: bounded TopPC tables (space-saving eviction)
//     attribute VP-misprediction flushes, branch mispredictions and L1D
//     demand misses to static PCs, rendered with internal/isa disassembly;
//   - trace export: Konata writes the pipeline trace in the Kanata log
//     format consumed by the Konata/gem5-O3 pipeline viewer, as a second
//     pipeline.Tracer implementation next to the human-only Pipeview;
//   - machine-readable records: RunRecord and SweepRecord are versioned
//     JSON schemas dumping full counters, the machine-configuration
//     fingerprint, the interval series and the attribution tables; a
//     SweepLog collects a tvpreport sweep's records and can print a live
//     progress line from the same counts.
//
// Telemetry is pure observation: a Telemetry attached through the
// pipeline.Probe seam never changes simulated timing, and with no probe
// attached the simulator pays at most one predictable branch per event
// site (guarded by `make bench-guard` against the PR 1 allocation
// baseline).
package obs

// Schema version strings embedded in every emitted record. Bump the
// suffix when a field changes meaning or is removed; adding fields is
// backward compatible.
const (
	// RunSchema versions RunRecord (one simulation point). v2 added the
	// CPI-stack block: totals in RunRecord.CPI, per-interval deltas in
	// Sample.CPIDelta, and the commit-stall attribution table.
	// DecodeRunRecord accepts v1 records (their CPI fields read as zero).
	RunSchema = "tvp.obs.run/v2"
	// RunSchemaV1 is the pre-CPI-stack RunRecord schema, still decodable.
	RunSchemaV1 = "tvp.obs.run/v1"
	// SweepSchema versions SweepRecord (one tvpreport sweep).
	SweepSchema = "tvp.obs.sweep/v1"
)

// DefaultInterval is the default interval-sampling period in committed
// architectural instructions.
const DefaultInterval = 100_000

// Defaults for the attribution tables: TopK entries are reported per
// event class out of up to TableCap tracked PCs.
const (
	DefaultTopK     = 32
	DefaultTableCap = 1024
)

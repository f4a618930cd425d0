// The sweep execution engine behind `axihc --sweep` (see sweep.hpp for the
// spec format).
//
// Every cell is one shared-nothing simulation job on the job pool
// (sim/parallel_jobs.hpp). Cells are processed in index order in
// batches of ~2x the worker count, so the JSON-lines output STREAMS while
// the sweep runs yet stays in deterministic cell order — a parallel sweep
// prints byte-identical rows to a serial one (`--sweep-deterministic` drops
// the wall-clock fields so whole files byte-compare).
//
// Incremental result cache: each cell's measurement fragment is stored
// under (config digest, code version) in `cache_dir`, one file per key.
// Identical configs — whether from a re-run, an overlapping sweep, or two
// cells that happen to collapse to the same canonical config — share one
// entry. Editing any source invalidates everything via the code-version
// digest (sweep/code_version.hpp); editing one axis value re-runs only the
// cells it touches.
//
// Sharding: `--sweep-shard i/N` runs the cells with index % N == i. Shards
// share nothing at runtime (cache directories may be shared or separate);
// the union of all shard outputs, sorted by the `cell` field, equals the
// unsharded output.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "config/ini.hpp"
#include "sweep/sweep.hpp"

namespace axihc {

struct SweepOptions {
  /// Result-cache directory ("" = caching off). Created on demand.
  std::string cache_dir;
  /// This process runs cells with index % shard_count == shard_index.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Omit the non-reproducible fields ("cached", "wall_ms", "rss_kb") so
  /// reruns and shard unions byte-compare.
  bool deterministic = false;
  /// Rows are streamed here as they complete (nullptr = collect only).
  std::ostream* out = nullptr;
};

struct SweepSummary {
  std::string name;
  std::size_t cells = 0;        ///< total cells in the spec
  std::size_t shard_cells = 0;  ///< cells this shard owns
  std::size_t executed = 0;     ///< simulated this run (cache misses)
  std::size_t cache_hits = 0;
  /// Cells statically refuted by the prover (src/prove): annotated rows
  /// with prove_verdict/static_backlog_bound, never simulated.
  std::size_t disproved = 0;
  /// Cells whose config the builder rejected: structured "error" rows.
  std::size_t errors = 0;
  /// Rows in cell order (this shard's cells only).
  std::vector<std::string> lines;
};

/// Runs the sweep described by `ini` (base config + [sweep] section).
[[nodiscard]] SweepSummary run_sweep(const IniFile& ini,
                                     const SweepOptions& opts);

/// Checks produced rows against a pin file (JSON-lines rows from an earlier
/// run, typically --sweep-deterministic output): for every pinned cell this
/// run produced, the canonical config digest and the simulation state
/// digest must match. Returns the number of mismatches, describing each on
/// `err`. Pins for cells outside this shard are ignored. A malformed pin
/// line throws JsonLineError.
[[nodiscard]] std::size_t check_pins(const std::vector<std::string>& lines,
                                     const std::string& pins_text,
                                     std::ostream& err);

}  // namespace axihc

// Sweep report generator (`axihc --sweep-report`): turns the engine's
// JSON-lines rows (runner.hpp) into a design-space summary.
//
// Three objectives per cell:
//   * throughput_bpc  — bytes moved per cycle (maximize);
//   * predictability  — WCLA bound slack (maximize) when every row carries
//     an analytic bound, else -read_p99 (maximize ⇔ minimize tail latency)
//     so SmartConnect/out-of-order sweeps still rank;
//   * lut             — estimated LUT cost (minimize).
//
// The report lists the Pareto front under those objectives and, per sweep
// axis, a sensitivity table: for each value the axis takes, the mean of
// every objective over all cells holding that value — the marginal effect
// of turning that one knob, averaged over the rest of the grid.
#pragma once

#include <string>
#include <vector>

namespace axihc {

// Both throw JsonLineError on a malformed line (its 1-based index in
// `jsonl_lines`) and when no line is a simulated row (one past the end).

/// Markdown report (human-facing; EXPERIMENTS.md embeds one).
[[nodiscard]] std::string sweep_report_markdown(
    const std::vector<std::string>& jsonl_lines);

/// The same content as one JSON document (machine-facing).
[[nodiscard]] std::string sweep_report_json(
    const std::vector<std::string>& jsonl_lines);

}  // namespace axihc

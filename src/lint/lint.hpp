// axihc-lint — elaboration-time design-rule checker (layer 1 of the
// static-analysis wall; see docs/STATIC_ANALYSIS.md).
//
// The DesignRuleChecker walks the elaborated (component, channel) graph
// after a system is assembled and checks the structural facts results
// depend on: two-phase channel discipline, a connected port topology, a
// consistent address map and matching link widths. A broken premise
// becomes a diagnostic with a fix hint instead of a silently wrong run.
//
// Checks (ids as reported):
//   phase-race              two-phase discipline violation recorded by the
//                           race detector (sim/phase_check.hpp)
//   unconnected-link        a port bundle with fewer than two attached
//                           components (dangling master/slave port)
//   address-overlap         overlapping decode-map entries, or two HA job
//                           windows sharing bytes
//   address-unmapped        HA job window not contained in the decode map
//   width-mismatch          data/ID width discontinuity at a bridge, or an
//                           ID too wide for the ID-extension boundary
//   lint-coverage           note: phase-race check skipped (uninstrumented
//                           build)
//
// ConfiguredSystem::lint() appends configuration-level rules on top:
//   recovery-probation-window  [recovery] probation_window shorter than the
//                              watchdog poll_period (probation can never
//                              observe a fault before promoting the port)
//
// Severities: kError findings fail `axihc --lint` (nonzero exit); kWarning
// findings are reported but pass; kNote is informational.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace axihc {

class AxiLink;

enum class LintSeverity : std::uint8_t { kNote, kWarning, kError };

[[nodiscard]] const char* to_string(LintSeverity severity);

/// One design-rule finding.
struct LintFinding {
  LintSeverity severity = LintSeverity::kWarning;
  std::string check;    // stable kebab-case id (see header comment)
  std::string subject;  // component / channel / range the finding is about
  std::string message;
  std::string hint;     // how to fix it
};

class LintReport {
 public:
  void add(LintFinding finding);

  [[nodiscard]] const std::vector<LintFinding>& findings() const {
    return findings_;
  }
  [[nodiscard]] std::size_t count(LintSeverity severity) const;
  [[nodiscard]] bool has_errors() const {
    return count(LintSeverity::kError) != 0;
  }
  /// True if any finding carries `check` (test helper).
  [[nodiscard]] bool has_check(const std::string& check) const;

  /// Human-readable listing, one finding per line plus a summary.
  void write_text(std::ostream& os) const;
  /// Machine-readable export (`axihc --lint-json`).
  void write_json(std::ostream& os) const;

 private:
  std::vector<LintFinding> findings_;
};

/// How an address range participates in the overlap checks.
enum class AddressKind : std::uint8_t {
  /// Memory decode-map entry: entries must not overlap one another.
  kDecode,
  /// SLVERR-synthesis window (fault injection): may overlap anything.
  kErrorWindow,
  /// An HA's job buffer: two HAs sharing bytes is flagged (hypervisor-level
  /// isolation), as is a window outside the decode map.
  kMasterWindow,
};

/// Collects topology facts about an elaborated system, then runs every
/// design rule over them.
/// ConfiguredSystem::lint() assembles one from an INI system; tests and
/// hand-built systems feed it directly.
class DesignRuleChecker {
 public:
  /// Declares that `link` must have at least two attached components
  /// (e.g. an interconnect port and the HA mastering it).
  void expect_connected(const AxiLink& link, std::string role);

  void add_address_range(std::string owner, AddrRange range,
                         AddressKind kind);

  /// Declares a register-slice bridge between two links: a bridge performs
  /// no width conversion, so both sides must agree on data and ID width.
  void add_bridge(std::string name, const AxiLink& upstream,
                  const AxiLink& downstream);

  /// Declares an ID-extension boundary: IDs entering on `link` must fit in
  /// `max_id_bits` (e.g. kIdPortShift for the HyperConnect's out-of-order
  /// mode, which packs the port index above the HA-side ID).
  void require_id_headroom(const AxiLink& link, std::uint32_t max_id_bits,
                           std::string reason);

  /// Runs all design rules. The phase-race check covers whatever an armed
  /// instrumented run has recorded so far; in uninstrumented builds it
  /// degrades to a single lint-coverage note.
  [[nodiscard]] LintReport run() const;

 private:
  struct NamedRange {
    std::string owner;
    AddrRange range;
    AddressKind kind;
  };
  struct BridgeInfo {
    std::string name;
    const AxiLink* up;
    const AxiLink* down;
  };
  struct LinkExpectation {
    const AxiLink* link;
    std::string role;
  };
  struct IdRule {
    const AxiLink* link;
    std::uint32_t max_id_bits;
    std::string reason;
  };

  void check_connectivity(LintReport& report) const;
  void check_address_map(LintReport& report) const;
  void check_widths(LintReport& report) const;
  void check_phase_races(LintReport& report) const;

  std::vector<LinkExpectation> links_;
  std::vector<NamedRange> ranges_;
  std::vector<BridgeInfo> bridges_;
  std::vector<IdRule> id_rules_;
};

}  // namespace axihc

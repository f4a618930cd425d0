// axihc-prove (src/prove): the static predictability certifier. Covers the
// certificate format, each disprover firing on a fixture it exists for, the
// unmodeled classifications, determinism, the lint wiring, the sweep
// screening (disproved annotation rows, structured error rows, cached
// certificates), and the headline soundness gate: over the full pareto1k
// grid every statically proven bound must dominate what the simulation of
// the same cell actually observed.
#include "prove/prove.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "hyperconnect/config.hpp"
#include "lint/lint.hpp"
#include "sweep/json_mini.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

#ifndef AXIHC_REPO_ROOT
#define AXIHC_REPO_ROOT "."
#endif

namespace axihc {
namespace {

std::string repo_file(const std::string& rel) {
  return std::string(AXIHC_REPO_ROOT) + "/" + rel;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  AXIHC_CHECK_MSG(in.good(), "cannot read " << path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A plain, fully-modeled two-port system: reservation on, nonzero budgets.
constexpr const char* kHealthy =
    "[system]\n"
    "interconnect = hyperconnect\n"
    "ports = 2\n"
    "cycles = 2000\n"
    "[hyperconnect]\n"
    "nominal_burst = 16\n"
    "max_outstanding = 4\n"
    "reservation_period = 4000\n"  // 72 x S(16) ~ 2952 cycles: feasible
    "budgets = 36 36\n"
    "[ha0]\n"
    "type = traffic\n"
    "direction = read\n"
    "burst = 16\n"
    "outstanding = 8\n"
    "[ha1]\n"
    "type = traffic\n"
    "direction = mixed\n"
    "burst = 16\n"
    "outstanding = 8\n";

ProveReport prove_text(const std::string& ini_text) {
  return build_system(ini_text)->prove();
}

// ---------------------------------------------------------------------------
// Certificate structure + determinism

TEST(ProveCertificate, JsonStructure) {
  const ProveReport proof = prove_text(kHealthy);
  EXPECT_EQ(proof.verdict(), ProveVerdict::kProven);

  const JsonValue cert = parse_json(proof.certificate_json());
  EXPECT_EQ(cert.find("schema")->str_or(""), "axihc-prove-v1");
  EXPECT_EQ(cert.find("verdict")->str_or(""), "proven");
  EXPECT_GE(cert.find("static_backlog_bound")->number, 0.0);

  const JsonValue* reservation = cert.find("reservation");
  ASSERT_NE(reservation, nullptr);
  EXPECT_TRUE(reservation->find("on")->boolean);
  EXPECT_TRUE(reservation->find("feasible")->boolean);
  EXPECT_GT(reservation->find("demand")->number, 0.0);

  const JsonValue* checks = cert.find("checks");
  ASSERT_NE(checks, nullptr);
  ASSERT_EQ(checks->items.size(), 4u);
  const std::vector<std::string> ids = {"deadlock-freedom", "efifo-backlog",
                                        "reservation", "wcla-bound"};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(checks->items[i].find("id")->str_or(""), ids[i]);
    EXPECT_EQ(checks->items[i].find("verdict")->str_or(""), "proven");
    EXPECT_FALSE(checks->items[i].find("detail")->str_or("").empty());
  }

  const JsonValue* ports = cert.find("ports");
  ASSERT_NE(ports, nullptr);
  ASSERT_EQ(ports->items.size(), 2u);
  for (const JsonValue& port : ports->items) {
    const JsonValue* backlog = port.find("backlog");
    ASSERT_NE(backlog, nullptr);
    EXPECT_GT(backlog->find("total")->number, 0.0);
    EXPECT_GT(port.find("wcrt_read")->number, 0.0);
  }
}

TEST(ProveCertificate, DigestIsStableAndContentSensitive) {
  const ProveReport a = prove_text(kHealthy);
  const ProveReport b = prove_text(kHealthy);
  // Pure function of the elaborated system: rebuilding yields the same
  // certificate byte for byte (this is what lets the sweep cache reuse it).
  EXPECT_EQ(a.certificate_json(), b.certificate_json());
  EXPECT_EQ(a.certificate_digest(), b.certificate_digest());
  EXPECT_NE(a.certificate_digest(), 0u);

  std::string tweaked = kHealthy;
  const std::size_t pos = tweaked.find("budgets = 36 36");
  ASSERT_NE(pos, std::string::npos);
  tweaked.replace(pos, 15, "budgets = 40 32");
  EXPECT_NE(prove_text(tweaked).certificate_digest(), a.certificate_digest());
}

TEST(ProveCertificate, VerdictStableAcrossThreadAndBackendEnv) {
  // The prover never simulates, so the job-pool worker count must not be
  // able to change a verdict or certificate.
  const std::string baseline = prove_text(kHealthy).certificate_json();
  for (const char* threads : {"1", "4"}) {
    ::setenv("AXIHC_BENCH_THREADS", threads, 1);
    EXPECT_EQ(prove_text(kHealthy).certificate_json(), baseline);
  }
  ::unsetenv("AXIHC_BENCH_THREADS");
}

// ---------------------------------------------------------------------------
// Each disprover fires on the fixture it exists for

TEST(ProveDisprovers, DeadlockCycleIsRefutedWithCounterexample) {
  // The INI surface cannot express a cyclic waits-for graph (the builder's
  // topologies all drain to sinks), so hand-build the adversarial input.
  ProveInput in = build_system(kHealthy)->prove_input();
  ASSERT_FALSE(in.edges.empty());
  // Close a loop: the memory's progress waits on a port queue that waits
  // (transitively) on the memory.
  in.edges.push_back({"mem", "port0.ar"});
  const ProveReport proof = prove(in);
  const ProveCheck* deadlock = proof.check("deadlock-freedom");
  ASSERT_NE(deadlock, nullptr);
  EXPECT_EQ(deadlock->verdict, ProveVerdict::kDisproved);
  // The certificate carries the cycle as a counterexample.
  EXPECT_NE(deadlock->detail.find("mem"), std::string::npos);
  EXPECT_NE(deadlock->detail.find("port0.ar"), std::string::npos);
  EXPECT_TRUE(proof.disproved());
}

TEST(ProveDisprovers, IdOverflowUnderOutOfOrderIsRefuted) {
  ProveInput in = build_system(kHealthy)->prove_input();
  in.out_of_order = true;
  in.id_bits = kIdPortShift + 1;  // HA IDs would alias the port tag bits
  const ProveReport proof = prove(in);
  const ProveCheck* reservation = proof.check("reservation");
  ASSERT_NE(reservation, nullptr);
  EXPECT_EQ(reservation->verdict, ProveVerdict::kDisproved);
  EXPECT_TRUE(proof.disproved());
  // Same input with headroom: fine.
  in.id_bits = kIdPortShift;
  EXPECT_NE(prove(in).check("reservation")->verdict,
            ProveVerdict::kDisproved);
}

TEST(ProveDisprovers, ZeroBudgetStarvationIsRefutedAndFailsStrictLint) {
  const auto sys =
      build_system(read_file(repo_file("tests/lint_fixtures/starved_port.ini")));
  const ProveReport proof = sys->prove();
  EXPECT_TRUE(proof.disproved());
  EXPECT_EQ(proof.check("reservation")->verdict, ProveVerdict::kDisproved);
  // No finite bound exists for a port that is never scheduled.
  EXPECT_EQ(proof.check("wcla-bound")->verdict, ProveVerdict::kDisproved);
  EXPECT_NE(proof.check("reservation")->detail.find("budget 0"),
            std::string::npos);

  // Lint folds the disproofs in as strict-fail warnings.
  const LintReport lint = sys->lint();
  EXPECT_TRUE(lint.has_check("prove-reservation"));
  EXPECT_TRUE(lint.has_check("prove-wcla-bound"));
  EXPECT_EQ(lint.count(LintSeverity::kError), 0u);  // plain --lint passes
  EXPECT_GT(lint.count(LintSeverity::kWarning), 0u);
}

TEST(ProveChecks, OvercommitWarnsButDoesNotDisprove) {
  const auto sys =
      build_system(read_file(repo_file("tests/lint_fixtures/overcommit.ini")));
  const ProveReport proof = sys->prove();
  // Overcommit keeps sound (composite-form) bounds: proven, not disproved.
  EXPECT_EQ(proof.verdict(), ProveVerdict::kProven);
  EXPECT_TRUE(proof.reservation_on);
  EXPECT_FALSE(proof.reservation_feasible);
  EXPECT_GT(proof.reservation_demand, 1000u);  // the fixture's period

  const LintReport lint = sys->lint();
  EXPECT_TRUE(lint.has_check("reservation-overcommit"));
  EXPECT_EQ(lint.count(LintSeverity::kError), 0u);
}

// ---------------------------------------------------------------------------
// Unmodeled classifications (the honest "no model" third verdict)

TEST(ProveChecks, SmartConnectIsUnmodeledNotDisproved) {
  const ProveReport proof = prove_text(
      "[system]\ninterconnect = smartconnect\nports = 2\ncycles = 2000\n"
      "[ha0]\ntype = traffic\ndirection = read\n");
  EXPECT_EQ(proof.verdict(), ProveVerdict::kUnmodeled);
  EXPECT_FALSE(proof.disproved());
  EXPECT_EQ(proof.static_backlog_bound(), -1);
  EXPECT_EQ(proof.check("wcla-bound")->verdict, ProveVerdict::kUnmodeled);
}

TEST(ProveChecks, OutOfOrderMemoryIsUnmodeledForWclaOnly) {
  const ProveReport proof =
      prove_text(read_file(repo_file("examples/configs/ooo_future_platform.ini")));
  EXPECT_EQ(proof.check("wcla-bound")->verdict, ProveVerdict::kUnmodeled);
  // The structural checks still run and pass.
  EXPECT_EQ(proof.check("deadlock-freedom")->verdict, ProveVerdict::kProven);
  EXPECT_EQ(proof.check("efifo-backlog")->verdict, ProveVerdict::kProven);
  EXPECT_GE(proof.static_backlog_bound(), 0);
}

// ---------------------------------------------------------------------------
// Backlog bound arithmetic

TEST(ProveChecks, BacklogBoundFollowsFlowControl) {
  const ProveReport proof = prove_text(kHealthy);
  ASSERT_EQ(proof.backlog.size(), 2u);
  // ha0: read-only, outstanding 8, burst 16, default depths (ar 4, r 32):
  // ar = min(8, 4), r = min(8 * 16, 32), no write-side demand.
  EXPECT_EQ(proof.backlog[0].ar, 4u);
  EXPECT_EQ(proof.backlog[0].r, 32u);
  EXPECT_EQ(proof.backlog[0].aw, 0u);
  EXPECT_EQ(proof.backlog[0].w, 0u);
  EXPECT_EQ(proof.backlog[0].b, 0u);
  EXPECT_EQ(proof.backlog[0].total, 36u);
  // ha1 reads and writes: both sides loaded.
  EXPECT_EQ(proof.backlog[1].total,
            proof.backlog[1].ar + proof.backlog[1].aw + proof.backlog[1].w +
                proof.backlog[1].r + proof.backlog[1].b);
  EXPECT_EQ(proof.static_backlog_bound(),
            static_cast<std::int64_t>(proof.backlog[1].total));
  // Demand above the AR depth is flagged as back-pressure, never an error.
  EXPECT_TRUE(proof.backlog[0].backpressure);
}

TEST(ProveChecks, Fig5ReservationDemandPin) {
  // The paper's HC-90-10 case study is overcommitted by design: 64+7
  // budgets at nominal burst 16 need 2911 worst-case cycles per 2000-cycle
  // period on the zcu102 timing model. Pinning the number keeps the demand
  // arithmetic honest.
  const ProveReport proof =
      prove_text(read_file(repo_file("examples/configs/fig5_hc90.ini")));
  EXPECT_EQ(proof.verdict(), ProveVerdict::kProven);
  EXPECT_TRUE(proof.reservation_on);
  EXPECT_FALSE(proof.reservation_feasible);
  EXPECT_EQ(proof.reservation_demand, 2911u);
}

TEST(ProveChecks, Fig4IsFeasibleAndFullyProven) {
  const ProveReport proof =
      prove_text(read_file(repo_file("examples/configs/fig4_isolation.ini")));
  EXPECT_EQ(proof.verdict(), ProveVerdict::kProven);
  for (const ProveCheck& c : proof.checks) {
    EXPECT_EQ(c.verdict, ProveVerdict::kProven) << c.id;
  }
}

// ---------------------------------------------------------------------------
// Sweep wiring: screening, annotation rows, error rows, cached certificates

TEST(ProveSweep, DisprovedCellsBecomeAnnotationRowsWithoutSimulation) {
  const std::string text =
      "[system]\ninterconnect = hyperconnect\nports = 2\n"
      "[hyperconnect]\nreservation_period = 2000\n"
      "[ha0]\ntype = traffic\ndirection = read\n"
      "[ha1]\ntype = traffic\ndirection = mixed\n"
      "[sweep]\nname = screen\ncycles = 2000\n"
      "axis.hyperconnect.budgets = 36 36 | 36 0\n";
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run_sweep(IniFile::parse(text), opts);
  ASSERT_EQ(s.lines.size(), 2u);
  EXPECT_EQ(s.disproved, 1u);

  const JsonValue good = parse_json(s.lines[0]);
  EXPECT_EQ(good.find("prove_verdict")->str_or(""), "proven");
  ASSERT_NE(good.find("cycles"), nullptr);
  ASSERT_NE(good.find("efifo_max"), nullptr);
  // Soundness on the simulated cell of this very sweep.
  EXPECT_LE(good.find("efifo_max")->number,
            good.find("static_backlog_bound")->number);

  const JsonValue bad = parse_json(s.lines[1]);
  EXPECT_EQ(bad.find("prove_verdict")->str_or(""), "disproved");
  EXPECT_EQ(bad.find("cycles"), nullptr);        // never simulated
  EXPECT_EQ(bad.find("state_digest"), nullptr);  // nothing to digest
  EXPECT_NE(bad.find("prove_detail")->str_or("").find("reservation"),
            std::string::npos);
  ASSERT_NE(bad.find("prove_certificate"), nullptr);

  // The report excludes the annotation row instead of polluting the front.
  const std::string md = sweep_report_markdown(s.lines);
  EXPECT_NE(md.find("Excluded 1 statically disproved"), std::string::npos);
  const JsonValue rep = parse_json(sweep_report_json(s.lines));
  EXPECT_EQ(rep.find("rows")->number, 1.0);
  EXPECT_EQ(rep.find("disproved")->number, 1.0);
}

TEST(ProveSweep, BuilderRejectionsBecomeStructuredErrorRows) {
  const std::string text =
      "[system]\ninterconnect = hyperconnect\nports = 2\n"
      "[hyperconnect]\nbudgets = 36 36\nreservation_period = 2000\n"
      "[ha0]\ntype = dma\n"
      "[ha1]\ntype = traffic\n"
      "[sweep]\nname = err\ncycles = 2000\naxis.ha0.mode = read | bogus\n";
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run_sweep(IniFile::parse(text), opts);
  ASSERT_EQ(s.lines.size(), 2u);
  EXPECT_EQ(s.errors, 1u);
  const JsonValue bad = parse_json(s.lines[1]);
  ASSERT_NE(bad.find("error"), nullptr);
  EXPECT_NE(bad.find("error")->str_or("").find("bogus"), std::string::npos);
  EXPECT_EQ(bad.find("cycles"), nullptr);  // the batch survived the cell
  const std::string md = sweep_report_markdown(s.lines);
  EXPECT_NE(md.find("failed to build"), std::string::npos);
}

TEST(ProveSweep, AnnotationRowsRoundTripThroughTheCache) {
  ::setenv("AXIHC_CODE_VERSION", "prove_cache_v1", 1);
  const std::string dir = testing::TempDir() + "axihc_prove_cache";
  std::filesystem::remove_all(dir);
  const std::string text =
      "[system]\ninterconnect = hyperconnect\nports = 2\n"
      "[hyperconnect]\nreservation_period = 2000\n"
      "[ha0]\ntype = traffic\ndirection = read\n"
      "[ha1]\ntype = traffic\ndirection = mixed\n"
      "[sweep]\nname = screen\ncycles = 2000\n"
      "axis.hyperconnect.budgets = 36 36 | 36 0\n";
  SweepOptions opts;
  opts.cache_dir = dir;
  opts.deterministic = true;
  const SweepSummary first = run_sweep(IniFile::parse(text), opts);
  EXPECT_EQ(first.cache_hits, 0u);
  const SweepSummary second = run_sweep(IniFile::parse(text), opts);
  // Disproved annotation rows (with their certificate digests) are cached
  // and re-served just like measurements, and invalidate with the code
  // version like everything else.
  EXPECT_EQ(second.cache_hits, 2u);
  EXPECT_EQ(second.lines, first.lines);
  EXPECT_EQ(second.disproved, 1u);
  ::setenv("AXIHC_CODE_VERSION", "prove_cache_v2", 1);
  const SweepSummary third = run_sweep(IniFile::parse(text), opts);
  EXPECT_EQ(third.cache_hits, 0u);
  ::unsetenv("AXIHC_CODE_VERSION");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Headline soundness gate: pareto1k, bound vs observation

/// Runs `spec_rel` fresh (no cache) and asserts, per simulated cell, that
/// the statically certified bounds dominate what the run observed.
std::size_t assert_sweep_soundness(const std::string& spec_rel) {
  const IniFile spec = IniFile::parse(read_file(repo_file(spec_rel)));
  SweepOptions opts;
  opts.deterministic = true;  // no cache: every cell simulates fresh
  const SweepSummary s = run_sweep(spec, opts);
  EXPECT_EQ(s.disproved, 0u) << spec_rel;  // shipped grids stay fully proven
  EXPECT_EQ(s.errors, 0u) << spec_rel;
  std::size_t checked = 0;
  for (const std::string& line : s.lines) {
    const JsonValue row = parse_json(line);
    const std::string verdict = row.find("prove_verdict")->str_or("");
    // A shipped grid may contain honestly-unmodeled cells (SmartConnect
    // baseline legs); it must never contain disproved ones.
    EXPECT_NE(verdict, "disproved") << line;
    const double bound = row.find("static_backlog_bound")->number;
    const double observed = row.find("efifo_max")->number;
    // THE soundness contract: a certified worst case is never beaten by a
    // run of the very configuration it certifies (-1: no bound certified).
    if (bound >= 0.0) {
      EXPECT_LE(observed, bound) << line;
    }
    if (verdict != "proven") continue;
    EXPECT_GE(bound, 0.0) << line;
    // And the certified WCLA bounds held transaction by transaction (the
    // runtime auditor counted zero violations).
    EXPECT_EQ(row.find("bound_violations")->number, 0.0) << line;
    ++checked;
  }
  return checked;
}

TEST(ProveSoundness, StaticBoundsDominateSimulationOverPareto1k) {
  EXPECT_EQ(assert_sweep_soundness("examples/sweeps/pareto1k.ini"), 1280u);
}

TEST(ProveSoundness, StaticBoundsDominateFig4AndFig5Grids) {
  // The paper-figure grids (isolation sweep, HC-90-10 contention grid):
  // the same bound-vs-observation contract on the cells the figures are
  // actually drawn from.
  EXPECT_GT(assert_sweep_soundness("examples/sweeps/fig4_isolation.ini"), 0u);
  EXPECT_GT(assert_sweep_soundness("examples/sweeps/fig5_grid.ini"), 0u);
}

TEST(ProveSoundness, StaticBoundsDominateAblationAndSmokeGrids) {
  // The remaining shipped specs, so every examples/sweeps grid is screened.
  EXPECT_EQ(assert_sweep_soundness("examples/sweeps/ablation_fifo_depth.ini"),
            7u);
  EXPECT_EQ(
      assert_sweep_soundness("examples/sweeps/ablation_reservation.ini"), 25u);
  EXPECT_EQ(assert_sweep_soundness("examples/sweeps/smoke64.ini"), 64u);
}

}  // namespace
}  // namespace axihc

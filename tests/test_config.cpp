// INI parser, config schema and config-driven system builder tests (the
// axihc CLI engine).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "config/canonical.hpp"
#include "config/ini.hpp"
#include "config/schema.hpp"
#include "config/system_builder.hpp"
#include "hyperconnect/hyperconnect.hpp"

namespace axihc {
namespace {

TEST(Ini, ParsesSectionsAndTypes) {
  const IniFile ini = IniFile::parse(
      "[system]\n"
      "name = hello world  ; comment\n"
      "count = 42\n"
      "ratio = 0.75\n"
      "flag = true\n"
      "list = 1 2 3\n"
      "# full-line comment\n"
      "[other]\n"
      "count = 0x10\n");
  const IniSection* sys = ini.section("system");
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->get_string("name"), "hello world");
  EXPECT_EQ(sys->get_u64("count", 0), 42u);
  EXPECT_DOUBLE_EQ(sys->get_double("ratio", 0), 0.75);
  EXPECT_TRUE(sys->get_bool("flag", false));
  EXPECT_EQ(sys->get_u32_list("list"), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(sys->get_u64("missing", 7), 7u);
  EXPECT_EQ(ini.section("other")->get_u64("count", 0), 16u);  // hex
}

TEST(Ini, RejectsMalformed) {
  EXPECT_THROW(IniFile::parse("[unterminated\n"), ModelError);
  EXPECT_THROW(IniFile::parse("key = value\n"), ModelError);  // no section
  EXPECT_THROW(IniFile::parse("[s]\nno_equals_here\n"), ModelError);
  EXPECT_THROW(IniFile::parse("[s]\n= value\n"), ModelError);
}

TEST(Ini, TypedAccessorsRejectGarbage) {
  const IniFile ini = IniFile::parse("[s]\nnum = abc\nflag = maybe\n");
  const IniSection* s = ini.section("s");
  EXPECT_THROW(static_cast<void>(s->get_u64("num", 0)), ModelError);
  EXPECT_THROW(static_cast<void>(s->get_bool("flag", false)), ModelError);
}

TEST(Ini, UnsignedAccessorsRejectNegativeValues) {
  // std::stoull would negate "-5" to 2^64 - 5, turning `cycles = -5` into a
  // run that never ends.
  const IniFile ini = IniFile::parse("[system]\ncycles = -5\n");
  const IniSection* s = ini.section("system");
  try {
    static_cast<void>(s->get_u64("cycles", 0));
    FAIL() << "negative cycles accepted";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[system]"), std::string::npos) << what;
    EXPECT_NE(what.find("cycles"), std::string::npos) << what;
    EXPECT_NE(what.find("-5"), std::string::npos) << what;
  }
  const IniFile zero = IniFile::parse("[s]\nn = -0\n");
  EXPECT_THROW(static_cast<void>(zero.section("s")->get_u64("n", 0)),
               ModelError);
}

TEST(Ini, UnsignedAccessorsRejectOutOfRangeValues) {
  const IniFile ini = IniFile::parse(
      "[s]\n"
      "huge = 18446744073709551616\n"   // 2^64
      "max = 18446744073709551615\n");  // 2^64 - 1
  const IniSection* s = ini.section("s");
  EXPECT_THROW(static_cast<void>(s->get_u64("huge", 0)), ModelError);
  EXPECT_EQ(s->get_u64("max", 0), UINT64_MAX);
}

TEST(Ini, U32ListRejectsNegativeAndTooWideElements) {
  const IniFile ini = IniFile::parse(
      "[hyperconnect]\n"
      "negative = 64 -1\n"
      "wide = 4294967296 7\n"   // 2^32 would truncate to 0
      "edge = 4294967295 0x10\n");
  const IniSection* s = ini.section("hyperconnect");
  try {
    static_cast<void>(s->get_u32_list("negative"));
    FAIL() << "negative list element accepted";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[hyperconnect]"), std::string::npos) << what;
    EXPECT_NE(what.find("negative"), std::string::npos) << what;
    EXPECT_NE(what.find("'-1'"), std::string::npos) << what;
  }
  EXPECT_THROW(static_cast<void>(s->get_u32_list("wide")), ModelError);
  EXPECT_EQ(s->get_u32_list("edge"),
            (std::vector<std::uint32_t>{UINT32_MAX, 16}));
}

TEST(SystemBuilder, NegativeCyclesIsAConfigError) {
  EXPECT_THROW(build_system("[system]\nports = 1\ncycles = -5\n"
                            "[ha0]\ntype = traffic\n"),
               ModelError);
}

TEST(Ini, PrefixLookupKeepsOrder) {
  const IniFile ini = IniFile::parse("[ha0]\nt=a\n[x]\nt=b\n[ha1]\nt=c\n");
  const auto has = ini.sections_with_prefix("ha");
  ASSERT_EQ(has.size(), 2u);
  EXPECT_EQ(has[0]->name(), "ha0");
  EXPECT_EQ(has[1]->name(), "ha1");
}

TEST(SystemBuilder, BuildsAndRunsTwoDmaSystem) {
  auto system = build_system(
      "[system]\n"
      "interconnect = hyperconnect\n"
      "ports = 2\n"
      "cycles = 50000\n"
      "[hyperconnect]\n"
      "reservation_period = 2000\n"
      "budgets = 30 15\n"
      "[ha0]\n"
      "type = dma\n"
      "mode = readwrite\n"
      "bytes_per_job = 65536\n"
      "[ha1]\n"
      "type = traffic\n"
      "direction = read\n"
      "burst = 8\n");
  EXPECT_EQ(system->run(), 50000u);
  EXPECT_EQ(system->ha_count(), 2u);
  EXPECT_GT(system->ha(0).stats().bytes_read, 0u);
  EXPECT_GT(system->ha(1).stats().bytes_read, 0u);
  // The 2:1 budget split must show in the issued sub-transactions.
  HyperConnect* hc = system->soc().hyperconnect();
  ASSERT_NE(hc, nullptr);
  EXPECT_EQ(hc->runtime().budgets[0], 30u);
  const std::string report = system->report();
  EXPECT_NE(report.find("ha0"), std::string::npos);
  EXPECT_NE(report.find("MB/s"), std::string::npos);
}

TEST(SystemBuilder, BuildsSmartConnectVariant) {
  auto system = build_system(
      "[system]\n"
      "interconnect = smartconnect\n"
      "cycles = 10000\n"
      "[ha0]\n"
      "type = traffic\n");
  EXPECT_EQ(system->soc().hyperconnect(), nullptr);
  system->run();
  EXPECT_GT(system->ha(0).stats().bytes_read, 0u);
}

TEST(SystemBuilder, DnnOnZynq7020) {
  auto system = build_system(
      "[system]\n"
      "platform = zynq7020\n"
      "cycles = 200000\n"
      "[ha0]\n"
      "type = dnn\n"
      "network = alexnet\n"
      "scale = 256\n");
  EXPECT_EQ(system->platform().name, "Zynq Z-7020");
  system->run();
  EXPECT_GT(system->ha(0).stats().bytes_read, 0u);
}

TEST(SystemBuilder, OutOfOrderModeWiresEverything) {
  auto system = build_system(
      "[system]\n"
      "cycles = 20000\n"
      "[hyperconnect]\n"
      "out_of_order = true\n"
      "[ha0]\n"
      "type = traffic\n"
      "[ha1]\n"
      "type = traffic\n");
  system->run();
  EXPECT_GT(system->ha(0).stats().bytes_read, 0u);
  EXPECT_GT(system->ha(1).stats().bytes_read, 0u);
}

TEST(SystemBuilder, RejectsBadConfigs) {
  EXPECT_THROW(build_system("[ha0]\ntype = dma\n"), ModelError);  // no system
  EXPECT_THROW(build_system("[system]\ncycles = 10\n"), ModelError);  // no HA
  EXPECT_THROW(build_system("[system]\ninterconnect = magic\n[ha0]\n"
                            "type = dma\n"),
               ModelError);
  EXPECT_THROW(build_system("[system]\nports = 1\n[ha0]\ntype = dma\n"
                            "[ha1]\ntype = dma\n"),
               ModelError);  // more HAs than ports
  EXPECT_THROW(build_system("[system]\ncycles=1\n[ha0]\ntype = warp\n"),
               ModelError);
  EXPECT_THROW(build_system("[system]\ncycles=1\n[ha0]\ntype = dnn\n"
                            "network = vgg\n"),
               ModelError);
}

/// The ModelError `text` raises when built, or "" when it builds.
std::string build_error(const std::string& text) {
  try {
    (void)build_system(text);
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

std::uint64_t state_after(const std::string& text, Cycle cycles) {
  auto system = build_system(text);
  system->run(cycles);
  return system->soc().sim().state_digest();
}

TEST(Schema, RejectsWhatNoReaderUses) {
  const std::string sys = "[system]\ncycles = 2000\n";
  const std::string traffic = "[ha0]\ntype = traffic\n";
  struct Case {
    std::string text;
    std::string names;  // the section and key the error must name
  };
  const Case cases[] = {
      {"[system]\ncycels = 5\n" + traffic, "[system] cycels = 5"},
      {sys + "[hyperconect]\n" + traffic, "[hyperconect]: unknown section"},
      {sys + "[hyperconnect]\narbitration = qos_prio\n" + traffic,
       "[hyperconnect] arbitration = qos_prio"},
      {sys + traffic + "burst = 0\n", "[ha0] burst = 0"},
      {sys + traffic + "burst = 4294967312\n", "[ha0] burst = 4294967312"},
      {sys + "[ha0]\ntype = dnn\nburst = 16\n", "[ha0] burst = 16"},
      {sys + traffic + "qos = 256\n", "[ha0] qos = 256"},
      {sys + "[ha0]\ntype = dma\noutstanding = 0\n", "[ha0] outstanding"},
      {"[system]\nports = 0\n" + traffic, "[system] ports = 0"},
      {sys + "[hyperconnect]\ndata_depth = 0\n" + traffic,
       "[hyperconnect] data_depth = 0"},
      {sys + "[hyperconnect]\nbudgets = 8 x\n" + traffic,
       "[hyperconnect] budgets = 8 x"},
      {sys + traffic + "gap = 1\ngap = 2\n", "[ha0] gap = 2: duplicate key"},
      {sys + "[ha0]\ntype = warp\n", "[ha0] type = warp"},
      {sys + "[ha0]\nburst = 8\n", "[ha0] type: missing"},
      {sys + traffic + "[fault0]\nkind = mem_slverr\nport = 0\n",
       "[fault0] port = 0"},
      {sys + traffic + "[fault0]\nkind = stall_w\nprobability = 1.5\n",
       "[fault0] probability = 1.5"},
      {sys + traffic + "[observe]\nsample_every = 0\n",
       "[observe] sample_every = 0"},
      {sys + traffic + "[recovery]\npoll_period = 0\n",
       "[recovery] poll_period = 0"},
      // Cross-key constraints, defaults included.
      {sys + traffic + "[ha1]\ntype = dma\n[ha2]\ntype = dma\n",
       "[system] ports = 2: fewer ports than the 3 [haN] sections"},
      {sys + traffic + "[fault0]\nkind = stall_w\nport = 2\n",
       "[fault0] port = 2"},
      {sys + traffic + "[recovery]\nbackoff_base = 64\nbackoff_max = 8\n",
       "[recovery] backoff_max = 8: below backoff_base = 64"},
      {sys + traffic + "[recovery]\nbackoff_base = 16001\n",
       "[recovery] backoff_base = 16001: above backoff_max = 16000"},
      {sys + traffic +
           "[recovery]\npoll_period = 500\nprobation_window = 200\n",
       "[recovery] probation_window = 200: below poll_period = 500"},
      {sys + traffic + "[recovery]\npoll_period = 3000\n",
       "[recovery] poll_period = 3000: above probation_window = 2000"},
      // Aliased decode-map entries, reported on the later one.
      {sys + traffic + "[mem0]\nbase = 0x0\nbytes = 0x2000\n"
                       "[mem1]\nbase = 0x1000\nbytes = 0x2000\n",
       "[mem1] base = 0x1000: [0x1000, 0x3000) overlaps [mem0] [0x0, 0x2000)"},
      {"[system]\ncycles = 2000\nmem_bytes = 0x4000\n" + traffic +
           "[mem0]\nbase = 0x3000\nbytes = 0x2000\n",
       "[system] mem_bytes = 0x4000: decodes [0x0, 0x4000), which overlaps "
       "[mem0] [0x3000, 0x5000)"},
      {sys + traffic + "[mem0]\nbase = 0xfffffffffffff000\nbytes = 0x2000\n",
       "[mem0] bytes = 0x2000: base + bytes passes the end"},
      {traffic, "[system]: missing section"},
      {sys, "[ha0]: missing section"},
      {"[system]\ninterconnect = smartconnect\n" + traffic + "[recovery]\n",
       "[system] interconnect = smartconnect: [recovery] needs"},
      {sys + traffic + "[campaign]\n", "[campaign]: a campaign measures"},
      {sys + traffic + "[recovery]\n[campaign]\nports = 2\n",
       "[campaign] ports = 2: port 2 is not below [system] ports = 2"},
      {sys + traffic + "[recovery]\n[campaign]\nstart_min = 1500\n",
       "[campaign] start_min = 1500: above start_max = 1000"},
      // Keys that size an allocation.
      {sys + "[hyperconnect]\naddr_depth = 65537\n" + traffic,
       "[hyperconnect] addr_depth = 65537"},
      {sys + traffic + "[observe]\nflight_capacity = 18446744073709551615\n",
       "[observe] flight_capacity = 18446744073709551615"},
  };
  for (const Case& c : cases) {
    const std::string error = build_error(c.text);
    EXPECT_NE(error.find(c.names), std::string::npos) << c.text << error;
    // A config error, not an invariant check deep in a constructor.
    EXPECT_EQ(error.find("check failed"), std::string::npos) << error;
  }
  EXPECT_NE(build_error(sys + "[ha0]\ntype = dnn\nburst = 16\n")
                .find("(known in [ha0]: type network scale macs_per_cycle "
                      "max_frames)"),
            std::string::npos);
}

TEST(Schema, SectionIndexDecidesThePort) {
  const std::string ha0 = "[ha0]\ntype = dma\nbytes_per_job = 65536\n";
  const std::string ha1 = "[ha1]\ntype = traffic\ngap = 3\n";
  // [ha1] written first is still the HA on port 1: same digest, same system.
  EXPECT_EQ(config_digest("[system]\n" + ha0 + ha1),
            config_digest("[system]\n" + ha1 + ha0));
  EXPECT_EQ(state_after("[system]\n" + ha0 + ha1, 3000),
            state_after("[system]\n" + ha1 + ha0, 3000));
  EXPECT_EQ(build_system("[system]\n" + ha1 + ha0)->ha_type(0), "dma");

  // [faultN] apply in index order, whatever the file order.
  const std::string f0 = "[fault0]\nkind = delay_w\nstart = 100\nparam = 2\n";
  const std::string f1 = "[fault1]\nkind = stall_w\nstart = 50\n";
  const auto faults = build_system("[system]\n" + ha0 + ha1 + f1 + f0)
                          ->fault_scenario()
                          .faults;
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].kind, FaultKind::kDelayW);
  EXPECT_EQ(state_after("[system]\n" + ha0 + ha1 + f1 + f0, 3000),
            state_after("[system]\n" + ha0 + ha1 + f0 + f1, 3000));

  const std::string system = "[system]\n";
  EXPECT_NE(build_error(system + ha0 + ha0).find("[ha0]: duplicate section"),
            std::string::npos);
  EXPECT_NE(build_error(system + ha0 + "[ha2]\ntype = dma\n")
                .find("[ha2]: HA sections must be numbered ha0..ha1"),
            std::string::npos);
  for (const char* bad : {"hax", "ha01", "ha", "fault", "memory"}) {
    EXPECT_NE(build_error(system + ha0 + "[" + bad + "]\n")
                  .find(std::string("[") + bad + "]: unknown section"),
              std::string::npos)
        << bad;
  }
  EXPECT_NE(build_error(system + ha0 + system).find("[system]: duplicate"),
            std::string::npos);
  EXPECT_NE(build_error(system + ha0 + f0 + f0).find("[fault0]: duplicate"),
            std::string::npos);
}

// Aliased decode-map entries are a config error located on the later entry,
// whichever of [memN] and [system] mem_bytes declares it; entries that only
// touch end to start decode disjoint bytes and build.
TEST(LintStructural, FlagsOverlappingDecodeMap) {
  const std::string head = "[system]\ncycles = 2000\n[ha0]\ntype = traffic\n";
  const std::string bank0 = "[mem0]\nbase = 0x0000\nbytes = 0x2000\n";
  const std::string error =
      build_error(head + bank0 + "[mem1]\nbase = 0x1000\nbytes = 0x2000\n");
  EXPECT_NE(error.find("[mem1] base = 0x1000: [0x1000, 0x3000) overlaps "
                       "[mem0] [0x0, 0x2000)"),
            std::string::npos)
      << error;
  EXPECT_EQ(error.find("check failed"), std::string::npos) << error;

  // A one-byte overlap is still an alias; a shared edge is not.
  EXPECT_NE(build_error(head + bank0 + "[mem1]\nbase = 0x1fff\nbytes = 0x10\n")
                .find("[mem1] base = 0x1fff"),
            std::string::npos);
  EXPECT_EQ(build_error(head + bank0 + "[mem1]\nbase = 0x2000\nbytes = 0x2000\n"),
            "");
}

TEST(SystemBuilder, RejectsMoreBudgetsThanPorts) {
  // The interconnect would silently drop the third budget.
  EXPECT_NE(build_error("[system]\nports = 2\n[hyperconnect]\n"
                        "budgets = 8 8 8\n[ha0]\ntype = traffic\n")
                .find("[hyperconnect] budgets = 8 8 8: 3 entries for 2 ports"),
            std::string::npos);
}

TEST(SystemBuilder, QosPriorityArbitrationSelectable) {
  auto system = build_system(
      "[system]\n"
      "cycles = 30000\n"
      "[hyperconnect]\n"
      "arbitration = qos_priority\n"
      "[ha0]\n"
      "type = traffic\n"
      "qos = 1\n"
      "[ha1]\n"
      "type = traffic\n"
      "qos = 8\n");
  system->run();
  // Both make progress (route backlog softens strict priority; the
  // dedicated QoS tests pin down the exact dominance conditions).
  EXPECT_GT(system->ha(1).stats().bytes_read, 0u);
}

}  // namespace
}  // namespace axihc

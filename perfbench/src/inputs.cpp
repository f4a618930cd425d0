#include <sstream>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

axihc::IniFile fig5_config(const std::string& text, bool smartconnect) {
  axihc::IniFile ini = axihc::IniFile::parse(text);
  if (smartconnect) {
    ini.get_or_add_section("system").replace("interconnect", "smartconnect");
  }
  return ini;
}

axihc::IniFile campaign_config(const std::string& text, std::uint64_t seed) {
  axihc::IniFile ini = axihc::IniFile::parse(text);
  ini.get_or_add_section("campaign").replace("seed", std::to_string(seed));
  return ini;
}

const Fig5Expected& fig5_expected(bool smartconnect) {
  // `axihc examples/configs/fig5_hc90.ini --config-digest` and `--digest`,
  // and the same for the file with [system] interconnect = smartconnect.
  static const Fig5Expected kHyperConnect{0x2517cd95338ed699ULL,
                                          0x5dd9de2217c0756eULL, 3571968,
                                          1243904, 947328, 844672};
  static const Fig5Expected kSmartConnect{0x0932ec1c40bd43abULL,
                                          0x5bcc214013590c92ULL, 1324288,
                                          532736, 5533360, 5533312};
  return smartconnect ? kSmartConnect : kHyperConnect;
}

std::vector<CellDigests> pareto1k_expected(const Options& opts) {
  std::istringstream in(
      read_file(opts.root + "/perfbench/expected/pareto1k_digests.txt"));
  std::vector<CellDigests> cells;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    CellDigests c;
    fields >> c.config >> c.state;
    if (!fields) throw std::runtime_error("bad pareto1k digest line: " + line);
    cells.push_back(c);
  }
  return cells;
}

std::string row_string(const axihc::JsonValue& row, const std::string& key) {
  const axihc::JsonValue* v = row.find(key);
  return v != nullptr ? v->str_or("") : std::string();
}

}  // namespace perfbench

#include "config/canonical.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

#include "config/schema.hpp"
#include "sim/digest.hpp"

namespace axihc {

std::string canonical_value(const std::string& raw) {
  // Tokenize on whitespace (the parser already trimmed the ends), reprint
  // fully-numeric tokens in decimal, rejoin with single spaces.
  std::istringstream is(raw);
  std::string token;
  std::vector<std::string> tokens;
  while (is >> token) {
    // Only a sign or digit can start a number; skipping the rest saves
    // std::stoull's exception on every word.
    if (token.find_first_of("+-0123456789") == 0) {
      std::size_t used = 0;
      try {
        const std::uint64_t v = std::stoull(token, &used, 0);
        if (used == token.size()) token = std::to_string(v);
      } catch (const std::exception&) {
        // out of range: keep verbatim
      }
    }
    tokens.push_back(token);
  }
  std::string joined;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i != 0) joined += ' ';
    joined += tokens[i];
  }
  if (joined == "yes" || joined == "on") return "true";
  if (joined == "no" || joined == "off") return "false";
  return joined;
}

std::string canonical_ini(const IniFile& ini) {
  // Stable sort keeps file order among equal names ([haN] names are
  // distinct, so prefix-order semantics survive the sort).
  std::vector<const IniSection*> sections;
  sections.reserve(ini.sections().size());
  for (const IniSection& s : ini.sections()) sections.push_back(&s);
  std::stable_sort(sections.begin(), sections.end(),
                   [](const IniSection* a, const IniSection* b) {
                     return a->name() < b->name();
                   });

  std::ostringstream os;
  for (const IniSection* s : sections) {
    os << "[" << s->name() << "]\n";
    const std::uint8_t scope = schema::scope_of(*s);
    // First occurrence per key (what get_* reads), then sort by key.
    std::vector<std::pair<std::string, std::string>> kept;
    for (const auto& [key, value] : s->entries()) {
      const bool seen =
          std::any_of(kept.begin(), kept.end(),
                      [&key](const auto& kv) { return kv.first == key; });
      if (seen) continue;
      const std::string canon = canonical_value(value);
      const schema::Key* row = schema::find(s->name(), scope, key);
      if (row != nullptr && row->dflt != nullptr && canon == row->dflt) {
        continue;
      }
      kept.emplace_back(key, canon);
    }
    std::stable_sort(kept.begin(), kept.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [key, value] : kept) {
      os << key << " = " << value << "\n";
    }
  }
  return os.str();
}

std::uint64_t config_digest(const IniFile& ini) {
  StateDigest d;
  d.mix(canonical_ini(ini));
  return d.value();
}

std::uint64_t config_digest(const std::string& ini_text) {
  return config_digest(IniFile::parse(ini_text));
}

}  // namespace axihc

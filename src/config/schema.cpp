#include "config/schema.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace axihc::schema {

namespace {

constexpr std::size_t kNoChoice = std::string_view::npos;
constexpr std::string_view kFamilies[] = {"ha", "fault", "mem"};

/// "ha1" -> "ha", "system" -> "system"; "" (no rows) for a family name
/// without a decimal index free of leading zeros ("ha", "ha01", "hax").
std::string_view family_of(const std::string& section) {
  for (const std::string_view family : kFamilies) {
    if (!section.starts_with(family)) continue;
    const std::string_view n = std::string_view(section).substr(family.size());
    const bool decimal =
        !n.empty() && n.size() <= 9 && (n == "0" || n[0] != '0') &&
        std::all_of(n.begin(), n.end(),
                    [](char c) { return c >= '0' && c <= '9'; });
    return decimal ? family : std::string_view();
  }
  return section;
}

/// The rows of one family; kKeys keeps each family's rows together.
std::span<const Key* const> rows_of(std::string_view family) {
  const Key* const* begin = std::begin(kKeys);
  while (begin != std::end(kKeys) && (*begin)->section != family) ++begin;
  const Key* const* end = begin;
  while (end != std::end(kKeys) && (*end)->section == family) ++end;
  return {begin, end};
}

bool in_scope(const Key& k, std::uint8_t scope) {
  return k.scope == kAll || scope == kAll || (k.scope & scope) != 0;
}

const Key* find_in(std::span<const Key* const> rows, std::uint8_t scope,
                   const std::string& key) {
  for (const Key* k : rows) {
    if (key == k->name && in_scope(*k, scope)) return k;
  }
  return nullptr;
}

/// True when `raw` parses as the row's type and lies in its range or set.
bool acceptable(const Key& k, const std::string& raw) {
  std::uint64_t v = 0;
  double real = 0;
  switch (k.type) {
    case kU64:
      return parse_unsigned(raw, k.max, v) && v >= k.min;
    case kU32List: {
      std::vector<std::uint32_t> list;
      return parse_u32_list(raw, list) &&
             std::all_of(list.begin(), list.end(), [&k](std::uint32_t e) {
               return e >= k.min && e <= k.max;
             });
    }
    case kBool:
      return parse_bool(raw).has_value();
    case kProbability:
      return parse_double(raw, real) && real >= 0 && real <= 1 &&
             (k.min == 0 || real > 0);
    case kChoice:
      return k.index(raw) != kNoChoice;
    case kString:
      return true;
  }
  return false;
}

std::string expected(const Key& k) {
  const std::string range =
      k.max == kMax ? " >= " + std::to_string(k.min)
                    : " in " + std::to_string(k.min) + ".." +
                          std::to_string(k.max);
  if (k.type == kU64) return "an integer" + range;
  if (k.type == kU32List) return "integers" + range;
  if (k.type == kBool) return "true or false";
  if (k.type == kProbability) {
    return k.min == 0 ? "a probability in [0, 1]" : "a probability in (0, 1]";
  }
  return std::string("one of: ") + k.choices;
}

/// The keys a [family] section accepts under `scope`, for messages.
std::string known_keys(std::string_view family, std::uint8_t scope) {
  std::string out;
  for (const Key* k : rows_of(family)) {
    if (in_scope(*k, scope)) out += std::string(" ") + k->name;
  }
  return out;
}

[[noreturn]] void reject(const IniSection& s, const std::string& what) {
  throw ModelError("[" + s.name() + "]" + what);
}

[[noreturn]] void reject(const IniSection& s, const std::string& key,
                         const std::string& value, const std::string& why) {
  reject(s, " " + key + " = " + value + ": " + why);
}

/// A value that conflicts with another key. `section` names the section
/// when `s` is section_or_empty's stand-in for an absent one.
[[noreturn]] void conflict(const char* section, const Key& k,
                           const IniSection& s, const std::string& why) {
  throw ModelError(std::string("[") + section + "] " + k.name + " = " +
                   k.text(s) + ": " + why);
}

/// lo <= hi on the values the readers see; names hi unless only lo is
/// spelled.
void check_order(const IniSection& s, const Key& lo, std::uint64_t lo_value,
                 const Key& hi, std::uint64_t hi_value) {
  if (hi_value >= lo_value) return;
  if (s.has(hi.name)) {
    conflict(s.name().c_str(), hi, s,
             std::string("below ") + lo.name + " = " +
                 std::to_string(lo_value));
  }
  conflict(s.name().c_str(), lo, s,
           std::string("above ") + hi.name + " = " + std::to_string(hi_value));
}

/// A campaign draws its own faults and measures survivability through the
/// recovery stack, on ports of the system.
void check_campaign(const IniFile& ini, const IniSection& camp,
                    const IniSection& sys, std::uint64_t ports) {
  if (ini.section("recovery") == nullptr) {
    reject(camp, ": a campaign measures survivability through the recovery "
                 "FSM; add a [recovery] section");
  }
  if (const auto faults = indexed(ini, "fault"); !faults.empty()) {
    reject(*faults.front(), ": the [campaign] draws the faults; remove the "
                            "[faultN] sections");
  }
  std::istringstream kinds(kCampaignKinds.text(camp));
  for (std::string word; kinds >> word;) {
    const std::size_t kind = kFaultKind.index(word);
    if (kind == 0 || kind == kNoChoice) {
      reject(camp, kCampaignKinds.name, kCampaignKinds.text(camp),
             "'" + word + "' is not an injector kind (" +
                 std::string(kFaultKind.choices)
                     .substr(kFaultKind.word(0).size() + 1) +
                 ")");
    }
  }
  for (const std::uint32_t p : kCampaignPorts.list(camp)) {
    if (p >= ports) {
      conflict("campaign", kCampaignPorts, camp,
               "port " + std::to_string(p) + " is not below [system] ports = " +
                   std::to_string(ports));
    }
  }
  check_order(camp, kCampaignMinFaults, kCampaignMinFaults.u64(camp),
              kCampaignMaxFaults, kCampaignMaxFaults.u64(camp));
  std::uint64_t cycles = kCampaignCycles.u64(camp);
  if (cycles == 0) cycles = kSystemCycles.u64(sys);
  check_order(camp, kCampaignStartMin,
              kCampaignStartMin.u64(camp, cycles / 10), kCampaignStartMax,
              kCampaignStartMax.u64(camp, cycles / 2));
  check_order(camp, kCampaignDurationMin, kCampaignDurationMin.u64(camp),
              kCampaignDurationMax, kCampaignDurationMax.u64(camp));
}

/// The decode map is [0, mem_bytes) plus one entry per nonempty [memN]; no
/// two entries may decode the same address, and none may wrap past the end
/// of the address space. A [memN] overlapping
/// [0, mem_bytes) is reported on mem_bytes, one overlapping an earlier
/// [memN] on its own base.
void check_decode_map(const IniFile& ini, const IniSection& sys) {
  const AddrRange low{0, kSystemMemBytes.u64(sys)};
  std::vector<std::pair<const IniSection*, AddrRange>> entries;
  for (const IniSection* m : indexed(ini, "mem")) {
    const AddrRange r{kMemBase.u64(*m), kMemBytes.u64(*m)};
    if (r.bytes == 0) continue;
    if (r.bytes > ~r.base) {
      conflict(m->name().c_str(), kMemBytes, *m,
               "base + bytes passes the end of the 64-bit address space");
    }
    if (low.bytes != 0 && low.overlaps(r.base, r.bytes)) {
      conflict("system", kSystemMemBytes, sys,
               "decodes " + low.text() + ", which overlaps [" +
                   m->name() + "] " + r.text() + " (aliased decode)");
    }
    for (const auto& [prev, pr] : entries) {
      if (pr.overlaps(r.base, r.bytes)) {
        conflict(m->name().c_str(), kMemBase, *m,
                 r.text() + " overlaps [" + prev->name() + "] " +
                     pr.text() + " (aliased decode)");
      }
    }
    entries.emplace_back(m, r);
  }
}

/// axis.<section>.<key> must name a key of the cell; its value is checked
/// per cell. The base section's type or kind sets the scope unless an axis
/// sweeps it.
void check_axis(const IniFile& ini, const IniSection& sweep,
                const std::string& key, const std::string& value) {
  const std::size_t dot = key.find('.', 5);
  if (dot == key.npos || dot == 5 || dot + 1 == key.size()) {
    reject(sweep, key, value, "an axis must name axis.<section>.<key>");
  }
  const std::string section = key.substr(5, dot - 5);
  if (section == "sweep") reject(sweep, key, value, "cannot sweep [sweep]");
  if (rows_of(family_of(section)).empty()) {
    reject(sweep, key, value, "unknown section [" + section + "]");
  }
  const IniSection* base = ini.section(section);
  const std::uint8_t scope = base == nullptr ||
                                     sweep.has("axis." + section + ".type") ||
                                     sweep.has("axis." + section + ".kind")
                                 ? kAll
                                 : scope_of(*base);
  if (find(section, scope, key.substr(dot + 1)) == nullptr) {
    reject(sweep, key, value,
           "unknown key (known in [" + section + "]:" +
               known_keys(family_of(section), scope) + ")");
  }
}

}  // namespace

std::string_view Key::word(std::size_t i) const {
  std::string_view rest = choices;
  for (; i > 0 && !rest.empty(); --i) {
    const std::size_t space = rest.find(' ');
    rest = space == rest.npos ? std::string_view() : rest.substr(space + 1);
  }
  return rest.substr(0, rest.find(' '));
}

std::size_t Key::index(const std::string& w) const {
  for (std::size_t i = 0; !word(i).empty(); ++i) {
    if (word(i) == w) return i;
  }
  return kNoChoice;
}

const Key* find(const std::string& section, std::uint8_t scope,
                const std::string& key) {
  return find_in(rows_of(family_of(section)), scope, key);
}

std::uint8_t scope_of(const IniSection& s) {
  const std::string_view family = family_of(s.name());
  if (family != "ha" && family != "fault") return kAll;
  const Key& scope_key = family == "ha" ? kHaType : kFaultKind;
  const std::size_t i = scope_key.choice(s);
  if (i == kNoChoice) return kAll;
  if (family == "ha") return static_cast<std::uint8_t>(1u << i);
  return i == 0 ? kMemSlverr : kInjector;
}

std::vector<const IniSection*> indexed(const IniFile& ini,
                                       const std::string& family) {
  std::vector<const IniSection*> out;
  for (const IniSection& s : ini.sections()) {
    if (family_of(s.name()) == family) out.push_back(&s);
  }
  std::sort(out.begin(), out.end(), [n = family.size()](auto* a, auto* b) {
    return std::stoul(a->name().substr(n)) < std::stoul(b->name().substr(n));
  });
  return out;
}

const IniSection& section_or_empty(const IniFile& ini,
                                   const std::string& name) {
  static const IniSection kEmpty("");
  const IniSection* s = ini.section(name);
  return s != nullptr ? *s : kEmpty;
}

}  // namespace axihc::schema

namespace axihc {

void validate_config(const IniFile& ini) {
  using namespace schema;
  std::size_t has = 0;
  const IniSection* last_ha = nullptr;  // the [haN] with the largest N
  for (const IniSection& s : ini.sections()) {
    const std::string_view family = family_of(s.name());
    if (family == "ha") {
      ++has;
      if (last_ha == nullptr || std::stoul(s.name().substr(2)) >
                                    std::stoul(last_ha->name().substr(2))) {
        last_ha = &s;
      }
    }
    const std::span<const Key* const> rows = rows_of(family);
    if (rows.empty()) {
      reject(s, ": unknown section (expected system, hyperconnect, observe, "
                "recovery, campaign, sweep, or haN, faultN, memN with a "
                "decimal N)");
    }
    if (ini.section(s.name()) != &s) reject(s, ": duplicate section");
    for (const Key* required : {&kHaType, &kFaultKind}) {
      if (family == required->section && !s.has(required->name)) {
        reject(s, std::string(" ") + required->name + ": missing, expected " +
                      expected(*required));
      }
    }
    const std::uint8_t scope = scope_of(s);
    const auto& entries = s.entries();
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      const auto& [key, value] = *it;
      if (std::any_of(entries.begin(), it,
                      [&key](const auto& e) { return e.first == key; })) {
        reject(s, key, value, "duplicate key");
      }
      if (family == "sweep" && key.rfind("axis.", 0) == 0) {
        check_axis(ini, s, key, value);
        continue;
      }
      const Key* row = find_in(rows, scope, key);
      if (row == nullptr) {
        reject(s, key, value,
               "unknown key (known in [" + s.name() + "]:" +
                   known_keys(family, scope) + ")");
      }
      if (!acceptable(*row, value)) {
        reject(s, key, value, "expected " + expected(*row));
      }
    }
  }
  // Unique indices below the [haN] count are exactly 0..n-1.
  if (last_ha != nullptr && std::stoul(last_ha->name().substr(2)) >= has) {
    reject(*last_ha, ": HA sections must be numbered ha0..ha" +
                         std::to_string(has - 1) + " without gaps");
  }

  // Cross-key constraints, on the values the readers will see (a missing
  // section or key reads as its default).
  if (ini.section("system") == nullptr) {
    throw ModelError("[system]: missing section (a config needs one)");
  }
  if (has == 0) {
    throw ModelError("[ha0]: missing section (a config needs at least one "
                     "[haN])");
  }
  const IniSection& sys = *ini.section("system");
  const std::uint64_t ports = kSystemPorts.u64(sys);
  if (has > ports) {
    conflict("system", kSystemPorts, sys,
             "fewer ports than the " + std::to_string(has) +
                 " [haN] sections");
  }
  const IniSection& hc = section_or_empty(ini, "hyperconnect");
  if (const std::size_t n = kHcBudgets.list(hc).size(); n > ports) {
    conflict("hyperconnect", kHcBudgets, hc,
             std::to_string(n) + " entries for " + std::to_string(ports) +
                 " ports");
  }
  for (const IniSection* f : indexed(ini, "fault")) {
    if (scope_of(*f) == kInjector && kFaultPort.u64(*f) >= ports) {
      conflict(f->name().c_str(), kFaultPort, *f,
               "expected a port below [system] ports = " +
                   std::to_string(ports));
    }
  }
  if (const IniSection* rec = ini.section("recovery")) {
    if (kSystemInterconnect.choice(sys) != 0) {
      conflict("system", kSystemInterconnect, sys,
               "[recovery] needs interconnect = hyperconnect (the stack "
               "drives the HyperConnect control interface)");
    }
    check_order(*rec, kRecoveryBackoffBase, kRecoveryBackoffBase.u64(*rec),
                kRecoveryBackoffMax, kRecoveryBackoffMax.u64(*rec));
    // The FSM advances at watchdog polls: a shorter probation window
    // promotes a recoupled port at the first poll, before any fault could
    // be observed.
    check_order(*rec, kRecoveryPollPeriod, kRecoveryPollPeriod.u64(*rec),
                kRecoveryProbationWindow,
                kRecoveryProbationWindow.u64(*rec));
  }
  check_decode_map(ini, sys);
  if (const IniSection* camp = ini.section("campaign")) {
    check_campaign(ini, *camp, sys, ports);
  }
}

}  // namespace axihc

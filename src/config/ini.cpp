#include "config/ini.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string_view>

#include "common/check.hpp"

namespace axihc {

namespace {
std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// A malformed line: a config error naming the line, not a model check.
[[noreturn]] void malformed(std::size_t line_no, const char* what) {
  throw ModelError("ini line " + std::to_string(line_no) + ": " + what);
}
}  // namespace

bool parse_unsigned(const std::string& text, std::uint64_t max,
                    std::uint64_t& out) {
  // Fast path for short plain decimals (most config values; std::stoull
  // dominates validate_config): the same result std::stoull gives.
  if (!text.empty() && text.size() <= 18 &&
      (text.front() != '0' || text.size() == 1) &&
      std::all_of(text.begin(), text.end(),
                  [](char c) { return c >= '0' && c <= '9'; })) {
    out = 0;
    for (const char c : text) {
      out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return out <= max;
  }
  // A leading '-' is rejected: std::stoull would negate "-5" to 2^64 - 5.
  if (text.empty() || text.front() == '-') return false;
  std::size_t used = 0;
  try {
    out = std::stoull(text, &used, 0);
  } catch (const std::exception&) {
    return false;
  }
  return used == text.size() && out <= max;
}

std::optional<bool> parse_bool(const std::string& text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

bool parse_u32_list(const std::string& text, std::vector<std::uint32_t>& out,
                    std::string* bad) {
  const auto blank = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  out.clear();
  for (auto b = std::find_if_not(text.begin(), text.end(), blank);
       b != text.end(); b = std::find_if_not(b, text.end(), blank)) {
    const auto e = std::find_if(b, text.end(), blank);
    const std::string token(b, e);
    std::uint64_t value = 0;
    if (!parse_unsigned(token, UINT32_MAX, value)) {
      if (bad != nullptr) *bad = token;
      return false;
    }
    out.push_back(static_cast<std::uint32_t>(value));
    b = e;
  }
  return true;
}

bool parse_double(const std::string& text, double& out) {
  std::size_t used = 0;
  try {
    out = std::stod(text, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used == text.size();
}

void IniSection::set(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, value);
}

void IniSection::replace(const std::string& key, const std::string& value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  entries_.emplace_back(key, value);
}

bool IniSection::has(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

std::string IniSection::get_string(const std::string& key,
                                   const std::string& fallback) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  return fallback;
}

std::uint64_t IniSection::get_u64(const std::string& key,
                                  std::uint64_t fallback) const {
  if (!has(key)) return fallback;
  const std::string raw = get_string(key);
  std::uint64_t value = 0;
  AXIHC_CHECK_MSG(parse_unsigned(raw, UINT64_MAX, value),
                  "[" << name_ << "] " << key << " = '" << raw
                      << "' is not an unsigned integer");
  return value;
}

double IniSection::get_double(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  const std::string raw = get_string(key);
  double value = 0;
  AXIHC_CHECK_MSG(parse_double(raw, value), "[" << name_ << "] " << key
                                                << " = '" << raw
                                                << "' is not a number");
  return value;
}

bool IniSection::get_bool(const std::string& key, bool fallback) const {
  if (!has(key)) return fallback;
  const std::string raw = get_string(key);
  const std::optional<bool> value = parse_bool(raw);
  AXIHC_CHECK_MSG(value.has_value(), "[" << name_ << "] " << key << " = '"
                                         << raw << "' is not a boolean");
  return *value;
}

std::vector<std::uint32_t> IniSection::get_u32_list(
    const std::string& key) const {
  std::vector<std::uint32_t> out;
  std::string bad;
  AXIHC_CHECK_MSG(parse_u32_list(get_string(key), out, &bad),
                  "[" << name_ << "] " << key << ": list element '" << bad
                      << "' is not an unsigned 32-bit integer");
  return out;
}

IniFile IniFile::parse(const std::string& text) {
  // Lines are views into `text`: no stream and no per-line copies, since
  // parsing is part of every build's set-up time.
  IniFile file;
  std::size_t line_no = 0;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    ++line_no;
    line = line.substr(0, line.find_first_of(";#"));  // strip comments
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;

    if (trimmed.front() == '[') {
      if (trimmed.back() != ']') malformed(line_no, "unterminated section");
      const std::string_view name = trim(trimmed.substr(1, trimmed.size() - 2));
      if (name.empty()) malformed(line_no, "empty section name");
      file.sections_.emplace_back(std::string(name));
      continue;
    }

    const auto eq = trimmed.find('=');
    if (eq == trimmed.npos) malformed(line_no, "expected key = value");
    if (file.sections_.empty()) malformed(line_no, "key outside any section");
    const std::string_view key = trim(trimmed.substr(0, eq));
    const std::string_view value = trim(trimmed.substr(eq + 1));
    if (key.empty()) malformed(line_no, "empty key");
    file.sections_.back().set(std::string(key), std::string(value));
  }
  return file;
}

const IniSection* IniFile::section(const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

IniSection* IniFile::mutable_section(const std::string& name) {
  for (auto& s : sections_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

IniSection& IniFile::add_section(const std::string& name) {
  sections_.emplace_back(name);
  return sections_.back();
}

IniSection& IniFile::get_or_add_section(const std::string& name) {
  if (IniSection* s = mutable_section(name)) return *s;
  return add_section(name);
}

std::vector<const IniSection*> IniFile::sections_with_prefix(
    const std::string& prefix) const {
  std::vector<const IniSection*> out;
  for (const auto& s : sections_) {
    if (s.name().rfind(prefix, 0) == 0) out.push_back(&s);
  }
  return out;
}

}  // namespace axihc

// JSON text helpers shared by every writer: sweep and campaign rows, prove
// certificates and Chrome traces. sweep/json_mini.hpp reads
// what these write.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace axihc {

/// Appends `s` as the body of a JSON string: `"` and `\` escaped, newline
/// and tab as \n and \t, every other control character as \u00XX.
void append_json_escaped(std::string& out, std::string_view s);
[[nodiscard]] std::string json_escape(std::string_view s);

/// `v` with six decimals ("%.6f"), the row format of sweeps and campaigns.
[[nodiscard]] std::string json_double(double v);

/// A 64-bit digest as "0x" and 16 lowercase hex digits.
[[nodiscard]] std::string hex_digest(std::uint64_t d);

}  // namespace axihc

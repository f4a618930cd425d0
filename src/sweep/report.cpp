#include "sweep/report.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>

#include "sweep/json_mini.hpp"

namespace axihc {

namespace {

struct Row {
  std::uint64_t cell = 0;
  std::vector<std::pair<std::string, std::string>> axes;  // id -> value
  double throughput = 0.0;
  double wcla_slack = -1.0;
  double read_p99 = 0.0;
  double lut = 0.0;
  bool cached = false;
  bool has_cached = false;
};

struct Parsed {
  std::string name = "sweep";
  bool all_bounded = true;  // every row carries a WCLA bound
  std::size_t skipped_disproved = 0;  // statically refuted, never simulated
  std::size_t skipped_errors = 0;     // builder rejected the config
  std::vector<Row> rows;

  /// The predictability objective of one row under the chosen metric.
  [[nodiscard]] double predictability(const Row& r) const {
    return all_bounded ? r.wcla_slack : -r.read_p99;
  }
  [[nodiscard]] const char* metric_name() const {
    return all_bounded ? "wcla_slack" : "neg_read_p99";
  }
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

Parsed parse_rows(const std::vector<std::string>& lines) {
  Parsed out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const JsonValue v = parse_json_line(lines[i], i + 1);
    const JsonValue* cell = v.find("cell");
    if (cell == nullptr) continue;  // header or foreign line
    // Annotation rows carry no measurements: a statically disproved cell
    // (prove_verdict without cycles) or a build failure must not pollute
    // the Pareto front / sensitivity averages. Counted, then skipped.
    if (v.find("error") != nullptr) {
      ++out.skipped_errors;
      continue;
    }
    if (v.find("cycles") == nullptr) {
      ++out.skipped_disproved;
      continue;
    }
    Row r;
    r.cell = static_cast<std::uint64_t>(cell->number);
    if (const JsonValue* name = v.find("sweep")) {
      out.name = name->str_or(out.name);
    }
    if (const JsonValue* axes = v.find("axes")) {
      for (const auto& [k, val] : axes->members) {
        r.axes.emplace_back(k, val.str_or(""));
      }
    }
    if (const JsonValue* t = v.find("throughput_bpc")) {
      r.throughput = t->num_or(0.0);
    }
    if (const JsonValue* s = v.find("wcla_slack")) {
      r.wcla_slack = s->num_or(-1.0);
    }
    if (const JsonValue* p = v.find("read_p99")) r.read_p99 = p->num_or(0.0);
    if (const JsonValue* l = v.find("lut")) r.lut = l->num_or(0.0);
    if (const JsonValue* c = v.find("cached")) {
      r.has_cached = true;
      r.cached = c->boolean;
    }
    // wcla_slack == -1 flags "no analytic bound for this configuration".
    if (r.wcla_slack < 0.0) out.all_bounded = false;
    out.rows.push_back(std::move(r));
  }
  if (out.rows.empty()) {
    throw JsonLineError(lines.size() + 1, "no simulated sweep rows");
  }
  return out;
}

/// True when `a` dominates `b`: no objective worse, at least one better.
bool dominates(const Parsed& p, const Row& a, const Row& b) {
  const double pa = p.predictability(a);
  const double pb = p.predictability(b);
  if (a.throughput < b.throughput || pa < pb || a.lut > b.lut) return false;
  return a.throughput > b.throughput || pa > pb || a.lut < b.lut;
}

std::vector<const Row*> pareto_front(const Parsed& p) {
  std::vector<const Row*> front;
  for (const Row& candidate : p.rows) {
    bool dominated = false;
    for (const Row& other : p.rows) {
      if (&other != &candidate && dominates(p, other, candidate)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(&candidate);
  }
  // Highest-throughput first; cell index breaks ties deterministically.
  std::sort(front.begin(), front.end(), [](const Row* a, const Row* b) {
    if (a->throughput != b->throughput) return a->throughput > b->throughput;
    return a->cell < b->cell;
  });
  // Duplicate configs (identical axes via overlapping values) add nothing.
  std::vector<const Row*> unique;
  for (const Row* r : front) {
    bool dup = false;
    for (const Row* u : unique) {
      dup = u->axes == r->axes && u->throughput == r->throughput &&
            u->lut == r->lut;
      if (dup) break;
    }
    if (!dup) unique.push_back(r);
  }
  return unique;
}

struct AxisStats {
  std::size_t cells = 0;
  double throughput = 0.0;
  double predictability = 0.0;
  double lut = 0.0;
};

/// axis id -> (value -> accumulated means), axes and values in first-seen
/// order so the report is deterministic in row order.
using Sensitivity =
    std::vector<std::pair<std::string,
                          std::vector<std::pair<std::string, AxisStats>>>>;

Sensitivity sensitivity_tables(const Parsed& p) {
  Sensitivity tables;
  for (const Row& r : p.rows) {
    for (const auto& [axis, value] : r.axes) {
      auto table =
          std::find_if(tables.begin(), tables.end(),
                       [&](const auto& t) { return t.first == axis; });
      if (table == tables.end()) {
        tables.push_back({axis, {}});
        table = tables.end() - 1;
      }
      auto& values = table->second;
      auto entry =
          std::find_if(values.begin(), values.end(),
                       [&](const auto& e) { return e.first == value; });
      if (entry == values.end()) {
        values.push_back({value, {}});
        entry = values.end() - 1;
      }
      AxisStats& s = entry->second;
      ++s.cells;
      s.throughput += r.throughput;
      s.predictability += p.predictability(r);
      s.lut += r.lut;
    }
  }
  for (auto& [axis, values] : tables) {
    for (auto& [value, s] : values) {
      const auto n = static_cast<double>(s.cells);
      s.throughput /= n;
      s.predictability /= n;
      s.lut /= n;
    }
  }
  return tables;
}

std::size_t cached_count(const Parsed& p) {
  std::size_t n = 0;
  for (const Row& r : p.rows) n += r.has_cached && r.cached ? 1 : 0;
  return n;
}

}  // namespace

std::string sweep_report_markdown(
    const std::vector<std::string>& jsonl_lines) {
  const Parsed p = parse_rows(jsonl_lines);
  const std::vector<const Row*> front = pareto_front(p);
  const Sensitivity tables = sensitivity_tables(p);

  std::ostringstream os;
  os << "# Sweep report: " << p.name << "\n\n";
  os << p.rows.size() << " cells (" << cached_count(p)
     << " from cache). Predictability metric: `" << p.metric_name()
     << "`";
  if (!p.all_bounded) {
    os << " (some cells have no analytic WCLA bound, so the read p99 tail "
          "stands in)";
  }
  os << ".";
  if (p.skipped_disproved != 0) {
    os << " Excluded " << p.skipped_disproved
       << " statically disproved cell(s) (see their prove_detail rows).";
  }
  if (p.skipped_errors != 0) {
    os << " Excluded " << p.skipped_errors
       << " cell(s) whose config failed to build (see their error rows).";
  }
  os << "\n\n";

  os << "## Pareto front (throughput vs predictability vs LUT)\n\n";
  os << "| cell |";
  const std::vector<std::pair<std::string, std::string>>& axis_order =
      p.rows.front().axes;
  for (const auto& [axis, value] : axis_order) os << " " << axis << " |";
  os << " throughput_bpc | " << p.metric_name() << " | lut |\n";
  os << "|---|";
  for (std::size_t i = 0; i < axis_order.size(); ++i) os << "---|";
  os << "---|---|---|\n";
  for (const Row* r : front) {
    os << "| " << r->cell << " |";
    for (const auto& [axis, value] : r->axes) os << " " << value << " |";
    os << " " << fmt(r->throughput) << " | " << fmt(p.predictability(*r))
       << " | " << static_cast<std::uint64_t>(r->lut) << " |\n";
  }

  for (const auto& [axis, values] : tables) {
    os << "\n## Sensitivity: " << axis << "\n\n";
    os << "| value | cells | mean throughput_bpc | mean " << p.metric_name()
       << " | mean lut |\n|---|---|---|---|---|\n";
    for (const auto& [value, s] : values) {
      os << "| " << value << " | " << s.cells << " | " << fmt(s.throughput)
         << " | " << fmt(s.predictability) << " | " << fmt(s.lut) << " |\n";
    }
  }
  return os.str();
}

std::string sweep_report_json(const std::vector<std::string>& jsonl_lines) {
  const Parsed p = parse_rows(jsonl_lines);
  const std::vector<const Row*> front = pareto_front(p);
  const Sensitivity tables = sensitivity_tables(p);

  std::ostringstream os;
  os << "{\"sweep\":\"" << p.name << "\",\"rows\":" << p.rows.size()
     << ",\"cached\":" << cached_count(p) << ",\"disproved\":"
     << p.skipped_disproved << ",\"errors\":" << p.skipped_errors
     << ",\"metric\":\"" << p.metric_name() << "\",\"pareto\":[";
  for (std::size_t i = 0; i < front.size(); ++i) {
    const Row* r = front[i];
    if (i != 0) os << ",";
    os << "{\"cell\":" << r->cell << ",\"axes\":{";
    for (std::size_t a = 0; a < r->axes.size(); ++a) {
      if (a != 0) os << ",";
      os << "\"" << r->axes[a].first << "\":\"" << r->axes[a].second << "\"";
    }
    os << "},\"throughput_bpc\":" << fmt(r->throughput)
       << ",\"predictability\":" << fmt(p.predictability(*r)) << ",\"lut\":"
       << static_cast<std::uint64_t>(r->lut) << "}";
  }
  os << "],\"sensitivity\":{";
  bool first_axis = true;
  for (const auto& [axis, values] : tables) {
    if (!first_axis) os << ",";
    first_axis = false;
    os << "\"" << axis << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) os << ",";
      os << "{\"value\":\"" << values[i].first << "\",\"cells\":"
         << values[i].second.cells << ",\"throughput_bpc\":"
         << fmt(values[i].second.throughput) << ",\"predictability\":"
         << fmt(values[i].second.predictability) << ",\"lut\":"
         << fmt(values[i].second.lut) << "}";
    }
    os << "]";
  }
  os << "}}";
  return os.str();
}

}  // namespace axihc

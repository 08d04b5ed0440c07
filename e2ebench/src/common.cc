#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

namespace e2e {

Zipf::Zipf(size_t n, double s, Rng* rng) : cdf_(n), rank_to_item_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  for (size_t i = 0; i < n; ++i) rank_to_item_[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(rank_to_item_[i - 1], rank_to_item_[rng->Below(i)]);
  }
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Unit();
  size_t r = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return rank_to_item_[std::min(r, cdf_.size() - 1)];
}

Graph MakeGraph(size_t users, size_t community, size_t extra, Rng* rng) {
  Graph g;
  g.users = users;
  g.edges.reserve(users * (2 + extra));
  for (size_t i = 0; i < users; ++i) {
    const size_t base = i / community * community;
    const size_t span = std::min(community, users - base);
    auto member = [base, span](size_t k) {
      return static_cast<uint32_t>(base + k % span);
    };
    const uint32_t u = static_cast<uint32_t>(i);
    g.edges.emplace_back(u, member(i - base + 1));  // ring
    g.edges.emplace_back(u, member(i - base + 3));  // skip ring
    for (size_t e = 0; e < extra; ++e) {
      g.edges.emplace_back(u, member(rng->Below(span)));
    }
  }
  return g;
}

std::string UserName(uint64_t id) {
  std::string name = "u";
  name += std::to_string(id);
  return name;
}

std::string FactsText(
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  std::string out;
  out.reserve(edges.size() * 24);
  for (const auto& [a, b] : edges) {
    out += "follows(";
    out += UserName(a);
    out += ", ";
    out += UserName(b);
    out += ").\n";
  }
  return out;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t RowChecksum(const lps::TermStore& store,
                     const std::vector<lps::Tuple>& rows) {
  uint64_t sum = 0;
  for (const lps::Tuple& t : rows) {
    std::string row = "(";
    row += lps::TermListToString(store, t);
    row += ')';
    sum += lps::Mix64(std::hash<std::string>{}(row));
  }
  return sum;
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "e2ebench: FAILED: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(1);
}

void MustOk(const lps::Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, {value, unit}});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back({name, {value, unit}});
}

void Report::Diagnostic(const std::string& name, double value,
                        const std::string& unit) {
  diagnostic_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

int Report::Finish(bool trace, bool correct) const {
  for (const auto& [k, v] : info_) {
    std::printf("context  %-24s %s\n", k.c_str(), v.c_str());
  }
  auto print = [](const char* kind, const auto& list) {
    for (const auto& [name, e] : list) {
      std::printf("%-9s %-36s %.6g %s\n", kind, name.c_str(), e.value,
                  e.unit.c_str());
    }
  };
  print("metric", end_to_end_);
  print("diag", diagnostic_);
  std::printf("%-9s %-36s %.6g %s\n", "diag", "failed_frac",
              static_cast<double>(failed_) /
                  static_cast<double>(std::max<uint64_t>(attempted_, 1)),
              "ratio");
  print("layer", layer_);
  for (const std::string& r : passed_) {
    std::printf("referee  %s: ok\n", r.c_str());
  }
  std::printf("checks   attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct ? "true" : "false");
  if (!correct) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2ebench: FAILED: a referee found wrong answers\n");
    return 1;
  }
  const auto& metrics = trace ? layer_ : end_to_end_;
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, e] = metrics[i];
    if (!std::isfinite(e.value)) Fail("metric " + name + " is not finite");
    std::snprintf(buf, sizeof buf, "%.17g", e.value);
    json += (i ? ", " : "") + std::string("\"") + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

void DescribeHost(const Context& ctx, Report* report) {
  report->Info("workload", ctx.workload);
  report->Info("seed", std::to_string(ctx.seed));
  report->Info("seconds", std::to_string(ctx.seconds));
  report->Info("mode", std::string(ctx.trace ? "traced" : "untraced") +
                           (ctx.smoke ? ", smoke sizes" : ""));
  report->Info("nproc", std::to_string(ctx.nproc));
  report->Info("lanes", std::to_string(ctx.lanes));
#if defined(__clang__)
  report->Info("compiler", "clang " __clang_version__);
#else
  report->Info("compiler", "gcc " __VERSION__);
#endif
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  report->Info("build", "optimized, NDEBUG");
#else
  report->Info("build", "unoptimized");
#endif
}

}  // namespace e2e

// Shared pieces of the end-to-end benchmark: seeded input generation,
// timing and percentile helpers, the result report, and the host
// context every result carries.
#ifndef LPS_E2EBENCH_COMMON_H_
#define LPS_E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lps/lps.h"
#include "trace.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now());
}

/// splitmix64: every input the program sees derives from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s. Ranks
/// map to users through a seeded permutation, so the popular users are
/// spread over the communities instead of all sitting in the first.
class Zipf {
 public:
  Zipf(size_t n, double s, Rng* rng);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> rank_to_item_;
};

/// A clustered follows graph: users partitioned into communities of
/// `community` members, every edge intra-community - a ring, a skip
/// ring (both strongly connect each community) plus `extra` seeded
/// random edges per user.
struct Graph {
  size_t users = 0;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
};
Graph MakeGraph(size_t users, size_t community, size_t extra, Rng* rng);

std::string UserName(uint64_t id);
/// follows(a, b) facts, one per line.
std::string FactsText(const std::vector<std::pair<uint32_t, uint32_t>>& edges);

/// Nearest-rank percentile of an unsorted sample (p in [0, 1]); 0 for an
/// empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// Peak resident set (VmHWM) of this process in MB. Workloads read it
/// when timing ends, before any referee that holds a second database.
double PeakRssMb();

/// Order-insensitive checksum over rendered rows, the way
/// serve::ServeAnswer computes it: rows are "(t1, ..., tn)".
uint64_t RowChecksum(const lps::TermStore& store,
                     const std::vector<lps::Tuple>& rows);

/// Reports a referee or program failure on stderr and exits 1 without
/// printing a result.
[[noreturn]] void Fail(const std::string& what);
void MustOk(const lps::Status& s, const std::string& what);
template <typename T>
T MustOk(lps::Result<T> r, const std::string& what) {
  if (!r.ok()) MustOk(r.status(), what);
  return std::move(r).value();
}

/// What one invocation was asked to do, plus the host facts every
/// result states.
struct Context {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  size_t nproc = 1;  // CPUs this process may run on
  size_t lanes = 1;  // = nproc: lanes of loader, evaluator and server
};

/// Metrics of one run. End-to-end metrics go to the result line of an
/// untraced run, per-layer metrics to that of a traced run; both are
/// printed as readable lines either way.
class Report {
 public:
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A named figure printed for reading only (not in the result line).
  void Diagnostic(const std::string& name, double value,
                  const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  /// Records a referee check that passed (a failing one calls Fail).
  void Passed(const std::string& referee) { passed_.push_back(referee); }

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Failure(uint64_t n = 1) { failed_ += n; }

  /// Prints the readable block, then - when every check passed - the
  /// one-line JSON result. Returns the process exit code.
  int Finish(bool trace, bool correct) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, Entry>> end_to_end_;
  std::vector<std::pair<std::string, Entry>> layer_;
  std::vector<std::pair<std::string, Entry>> diagnostic_;
  std::vector<std::string> passed_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Fills the readable context block: host, build and input sizes.
void DescribeHost(const Context& ctx, Report* report);

// The three workloads (bulk.cc, serve.cc, churn.cc). Each builds its
// inputs from ctx.seed, runs its set-up, measures for ctx.seconds,
// checks its answers and fills `report`. Returns false when a referee
// found a wrong answer.
bool RunBulkFixpoint(const Context& ctx, Tracer* tracer, Report* report);
bool RunServePoint(const Context& ctx, Tracer* tracer, Report* report);
bool RunChurnPublish(const Context& ctx, Tracer* tracer, Report* report);

}  // namespace e2e

#endif  // LPS_E2EBENCH_COMMON_H_

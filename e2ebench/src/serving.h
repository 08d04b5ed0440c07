// Read traffic shared by serve_point and churn_publish: the route mix,
// the open-loop generator and the per-request accounting.
#ifndef LPS_E2EBENCH_SERVING_H_
#define LPS_E2EBENCH_SERVING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "layers.h"

namespace e2e {

/// The routes of the mix. kMiss names a user the snapshot has never
/// seen, which takes the server's empty fast path.
enum Route : size_t { kDemand = 0, kSet = 1, kScan = 2, kMiss = 3 };
constexpr size_t kRoutes = 4;

/// Goal text per prepared query: recursive demand, set-valued demand
/// and an EDB scan. Misses use any of the three.
constexpr std::array<const char*, 3> kGoals = {"reach(U, Y)", "circle(U, S)",
                                               "follows(U, Y)"};

/// Per-request service limit (ServeOptions::default_timeout_micros) of
/// both serving workloads: a request over it is a counted failure.
constexpr double kLimitMicros = 250000;

struct Request {
  Route route;
  size_t goal;      // index into kGoals
  std::string key;  // user constant bound to U
};

/// Draws requests in exact shares - 5% misses, 15% follows scans, the
/// rest split equally between reach and circle - in seeded random order,
/// so route counts do not vary with the seed. Keys are Zipf(1)-skewed or uniform
/// over `users`. Without `sets` (a program with no circle) the circle
/// share goes to reach.
class Traffic {
 public:
  Traffic(size_t users, bool zipf, bool sets, uint64_t seed);
  std::vector<Request> Draw(size_t n);

 private:
  Rng rng_;
  size_t users_;
  bool sets_;
  std::unique_ptr<Zipf> zipf_;
  uint64_t misses_ = 0;
};

/// Expected answer checksum per (goal, key), computed by scanning the
/// session's own fixpoint sequentially.
class Truth {
 public:
  void Add(lps::Session* session, const Request& r);
  /// Null when the pair was never added.
  const uint64_t* Find(const Request& r) const;

 private:
  std::unordered_map<std::string, uint64_t> checksum_;
};

/// A published snapshot and the server reading it.
struct Deployment {
  std::unique_ptr<lps::Session> session;
  std::shared_ptr<const lps::serve::Snapshot> snapshot;
  std::unique_ptr<lps::serve::SnapshotRegistry> registry;
  std::unique_ptr<lps::serve::QueryServer> server;  // reads *registry
  std::vector<size_t> query_ids;  // by kGoals index
  double load_ms = 0, eval_ms = 0, freeze_ms = 0, publish_us = 0;
};

/// What a deployment is made of: `rules` plus the facts `text`, loaded
/// and evaluated at `lanes` lanes, frozen with the default
/// Session::Freeze and served by `server_lanes` lanes. Without `sets`
/// the circle goal is not prepared.
struct DeploySpec {
  const char* rules;
  const std::string* text;
  bool incremental = false;
  size_t lanes = 1;
  size_t server_lanes = 1;
  bool sets = true;
};

/// The set-up of both serving workloads, run `times` times from
/// scratch (the previous deployment torn down first); returns the last
/// one. Appends each round's wall time to `setup_s`.
Deployment DeployRepeatedly(const DeploySpec& spec, size_t times,
                            std::vector<double>* setup_s,
                            std::vector<double>* freeze_ms,
                            std::vector<double>* publish_us);

/// Everything measured on the serving side of one run.
struct ServeTally {
  std::array<std::vector<double>, kRoutes> svc_us;  // ServeAnswer::micros
  std::vector<double> latency_ms;  // open loop, from the due time
  std::vector<double> traced_ms, untraced_ms;  // the same, split by tracing
  std::vector<double> queue_ms;    // batch start - due time
  uint64_t open_batches = 0;
  uint64_t open_requests = 0;
  double busy_us = 0;        // sum of ServeAnswer::micros
  double lane_wall_us = 0;   // lanes x batch wall
  uint64_t attempted = 0;
  uint64_t failed = 0;       // non-OK answers plus checksum mismatches
  uint64_t mismatched = 0;   // checksum mismatches alone
  uint64_t iteration = 0;    // batch counter, the span iteration id
};

/// Serves `requests` as one ExecuteBatch and accounts for it. `due` per
/// request is the open-loop due time (empty for closed-loop batches); a
/// null `truth` skips the checksum check.
void ServeBatch(lps::serve::QueryServer* server,
                const std::vector<size_t>& query_ids,
                const std::vector<Request>& requests,
                const std::vector<Clock::time_point>& due, const Truth* truth,
                Tracer* tracer, ServeTally* tally);

/// Open loop at a fixed rate: the `schedule`'s requests fall due one
/// every 1/rate seconds from now, and one generator (the calling thread)
/// hands every request due to one ExecuteBatch. A null `truth` skips the
/// checksum check; a null `stop` runs the whole schedule, otherwise the
/// loop returns once it is set.
void RunOpenLoop(lps::serve::QueryServer* server,
                 const std::vector<size_t>& query_ids,
                 const std::vector<Request>& schedule, double rate,
                 const Truth* truth, Tracer* tracer, ServeTally* tally,
                 const std::atomic<bool>* stop);

/// Server-layer metrics from the tally and the server's own counters.
void FillServer(const ServeTally& tally, const lps::serve::ServeStats& st,
                Layers* out);

}  // namespace e2e

#endif  // LPS_E2EBENCH_SERVING_H_

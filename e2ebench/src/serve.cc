// serve_point: read-only serving. A converged snapshot (reach and
// circle materialized by the default Session::Freeze) is published
// once and served by a `lanes`-lane QueryServer: first an open loop at
// one fixed rate, timed from each request's due time, then a closed
// loop over a fixed seeded batch for saturated throughput. Chosen
// because the server, parameter resolution, the rewrite cache and
// per-request demand evaluation do nearly all the work here; ingest and
// evaluation are set-up only.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "serving.h"

namespace e2e {
namespace {

constexpr char kRules[] =
    "reach(X, Y) :- follows(X, Y).\n"
    "reach(X, Z) :- reach(X, Y), follows(Y, Z).\n"
    "circle(U, <V>) :- reach(U, V).\n";

constexpr size_t kUsers = 15040;  // whole communities; ~45k edges
constexpr size_t kCommunity = 64;
constexpr size_t kSmokeUsers = 512;
constexpr size_t kSetups = 5;
// Low enough that nearly every batch holds one request, so the latency
// percentiles show a request's own service rather than a backlog.
constexpr double kRate = 50;
constexpr double kOpenShare = 0.6;  // of the run; the rest is closed loop
constexpr size_t kClosedBatchPerLane = 32;

}  // namespace

bool RunServePoint(const Context& ctx, Tracer* tracer, Report* report) {
  Rng rng(ctx.seed);
  const size_t users = ctx.smoke ? kSmokeUsers : kUsers;
  const Graph g = MakeGraph(users, kCommunity, 1, &rng);
  const std::string text = FactsText(g.edges);
  report->Info("input", std::to_string(g.edges.size()) + " facts, " +
                            std::to_string(text.size()) + " bytes, " +
                            std::to_string(users) + " users, community " +
                            std::to_string(kCommunity));
  const double open_s = ctx.seconds * kOpenShare;
  const double closed_s = ctx.seconds - open_s;
  Traffic traffic(users, /*zipf=*/true, /*sets=*/true, rng.Next());
  const std::vector<Request> schedule =
      traffic.Draw(static_cast<size_t>(kRate * open_s));
  // Sorted by route: ExecuteBatch stripes request i onto lane
  // i % lanes, so every lane gets the same route mix and the batch time
  // does not depend on how the seed happened to deal demand requests.
  std::vector<Request> closed = traffic.Draw(kClosedBatchPerLane * ctx.lanes);
  std::stable_sort(closed.begin(), closed.end(),
                   [](const Request& a, const Request& b) {
                     return a.route < b.route;
                   });
  report->Info("traffic", std::to_string(schedule.size()) +
                              " open-loop requests at " +
                              std::to_string(static_cast<int>(kRate)) +
                              "/s, closed batch of " +
                              std::to_string(closed.size()));

  // ---- Set-up, several times; the last one serves --------------------
  std::vector<double> setup_s, freeze_ms, publish_us;
  DeploySpec spec{kRules, &text};
  spec.lanes = spec.server_lanes = ctx.lanes;
  Deployment s =
      DeployRepeatedly(spec, kSetups, &setup_s, &freeze_ms, &publish_us);
  // Referee: sequential ground truth for every (goal, key) served.
  Truth truth;
  for (const Request& r : schedule) truth.Add(s.session.get(), r);
  for (const Request& r : closed) truth.Add(s.session.get(), r);

  // ---- Timed: open loop, then closed loop ----------------------------
  ServeTally tally;
  RunOpenLoop(s.server.get(), s.query_ids, schedule, kRate, &truth, tracer,
              &tally, nullptr);
  uint64_t closed_requests = 0;
  double closed_ms = 0;
  for (uint64_t i = 0; closed_ms < closed_s * 1e3 || i < 2; ++i) {
    tracer->set_recording(i % 2 == 0);
    const Clock::time_point t0 = Clock::now();
    ServeBatch(s.server.get(), s.query_ids, closed, {}, &truth, tracer,
               &tally);
    closed_ms += MsSince(t0);
    closed_requests += closed.size();
  }
  tracer->set_recording(false);
  const double peak_rss = PeakRssMb();
  report->Attempt(tally.attempted);
  report->Failure(tally.failed);

  const double p50 = Median(tally.latency_ms);
  const double p75 = Percentile(tally.latency_ms, 0.75);
  const double p90 = Percentile(tally.latency_ms, 0.9);
  const double qps = static_cast<double>(closed_requests) / (closed_ms / 1e3);
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", peak_rss, "MB");
  report->EndToEnd("latency_p50_ms", p50, "ms");
  report->EndToEnd("latency_p75_ms", p75, "ms");
  report->EndToEnd("throughput_per_s", qps, "1/s");
  report->Diagnostic("serve_p50_ms", p50, "ms");
  report->Diagnostic("serve_p90_ms", p90, "ms");
  report->Diagnostic("serve_p99_ms", Percentile(tally.latency_ms, 0.99), "ms");
  report->Diagnostic("serve_qps", qps, "1/s");
  report->Diagnostic("open_loop_requests",
                     static_cast<double>(tally.latency_ms.size()), "count");
  report->Diagnostic("checksum_mismatches",
                     static_cast<double>(tally.mismatched), "count");

  Layers layers;
  const lps::EvalStats& st = s.session->eval_stats();
  FillIngest(st, s.load_ms, st.ingest.parse_ms, st.ingest.merge_ms,
             text.size(), &layers);
  FillEval(st, s.eval_ms, &layers);
  FillStorage(st, s.session->database()->TupleCount(), &layers);
  layers.Set("snapshot.full_ms", Median(freeze_ms));
  const lps::serve::CowStats& cow = s.snapshot->cow_stats();
  layers.Set("snapshot.relations_cloned",
             static_cast<double>(cow.relations_cloned));
  layers.Set("registry.publish_us", Median(publish_us));
  layers.Set("registry.live_snapshots_max",
             static_cast<double>(s.registry->live_snapshots()));
  FillServer(tally, s.server->stats(), &layers);
  if (ctx.trace) {
    FillTrace(*tracer, Median(tally.traced_ms) / Median(tally.untraced_ms) - 1,
              &layers);
  }
  layers.Emit(report);
  if (tally.mismatched == 0) {
    report->Passed("every timed answer matches its sequential checksum");
  }
  return tally.mismatched == 0;
}

}  // namespace e2e

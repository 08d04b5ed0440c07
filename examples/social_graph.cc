// Scale workload: reachability over a clustered social graph, bulk
// loaded through the pipelined parallel loader. The generator emits a
// deterministic "communities" graph - users partitioned into clusters
// of 64, every follows edge intra-cluster (a ring, a skip ring, plus
// pseudo-random extras) - so the EDB grows to millions of edges while
// a goal-directed point query like reach(u0, X) still only derives one
// cluster's slice: the magic-set rewrite keeps the demand proportional
// to the community, not the graph.
//
// The interesting part is ingestion. The facts text (tens to hundreds
// of MB at full scale) goes through Session::LoadFactsParallel: split
// into newline-aligned chunks, parsed on N lanes into per-lane scratch
// term stores, merged deterministically into the session. The printed
// ingest counters show the pipeline at work (chunks, scratch terms,
// remap hits, presized-away rehashes); bench/bench_ingest.cc gates the
// lane-scaling speedup in CI on the same workload shape.
//
//   build/examples/social_graph [users] [lanes]
//
// Defaults: 8192 users (~24k edges), hardware-concurrency lanes. The
// 10M-edge configuration from the benchmark is `social_graph 3400000`.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "lps/lps.h"

namespace {

constexpr size_t kClusterSize = 64;

// Deterministic follows() facts: ring + skip ring + two LCG extras per
// user, all within the user's cluster. ~3 edges per user.
std::string GenerateFollows(size_t users) {
  std::string out;
  out.reserve(users * 3 * 24);
  uint64_t rng = 0x2545f4914f6cdd1dULL;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  auto edge = [&out](size_t a, size_t b) {
    out += "follows(u" + std::to_string(a) + ", u" + std::to_string(b) +
           ").\n";
  };
  for (size_t i = 0; i < users; ++i) {
    const size_t cluster = i / kClusterSize;
    const size_t base = cluster * kClusterSize;
    const size_t span = std::min(kClusterSize, users - base);
    auto member = [base, span](size_t k) { return base + k % span; };
    edge(i, member(i - base + 1));      // ring
    edge(i, member(i - base + 3));      // skip ring
    if (span > 4) edge(i, member(next() % span));  // extra
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t users = argc > 1
                           ? static_cast<size_t>(std::strtoull(
                                 argv[1], nullptr, 10))
                           : 8192;
  const size_t lanes =
      argc > 2 ? static_cast<size_t>(std::strtoull(argv[2], nullptr, 10))
               : 0;  // 0 = hardware concurrency

  // Goal-directed: the point queries below run ExecuteDemand(), so
  // there is no up-front fixpoint.
  lps::Session session(lps::LanguageMode::kLDL);

  lps::Status st = session.Load(R"(
    reach(X, Y) :- follows(X, Y).
    reach(X, Z) :- reach(X, Y), follows(Y, Z).
    fof(X, Z) :- follows(X, Y), follows(Y, Z).
  )");
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("generating %zu users (~%zu edges)...\n", users, users * 3);
  const std::string facts = GenerateFollows(users);
  std::printf("facts text: %.1f MB\n",
              static_cast<double>(facts.size()) / (1024.0 * 1024.0));

  const auto t0 = std::chrono::steady_clock::now();
  st = session.LoadFactsParallel(facts, lanes);
  const double load_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (!st.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const lps::EvalStats::IngestStats& ig = session.eval_stats().ingest;
  std::printf(
      "loaded %zu facts (%zu unique) in %.1f ms\n"
      "  lanes %zu, chunks %zu, parse %.1f ms, merge %.1f ms\n"
      "  scratch terms %zu, remap hits %zu, rehashes avoided %zu\n",
      ig.facts_parsed, ig.facts_inserted, load_ms, ig.lanes, ig.chunks,
      ig.parse_ms, ig.merge_ms, ig.scratch_terms, ig.remap_hits,
      ig.presize_rehashes_avoided);

  // Point queries stay community-sized no matter how big the graph is:
  // the magic rewrite only seeds u0's cluster.
  for (const char* goal : {"reach(u0, X)", "fof(u0, Z)"}) {
    auto query = session.Prepare(goal);
    if (!query.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    const auto q0 = std::chrono::steady_clock::now();
    auto cursor = query->ExecuteDemand();
    if (!cursor.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   cursor.status().ToString().c_str());
      return 1;
    }
    size_t answers = 0;
    for (const lps::Tuple& t : *cursor) {
      (void)t;
      ++answers;
    }
    const double q_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - q0)
                            .count();
    std::printf("%s: %zu answers in %.2f ms (magic tuples %zu)\n", goal,
                answers, q_ms, session.eval_stats().magic_tuples);
  }
  return 0;
}

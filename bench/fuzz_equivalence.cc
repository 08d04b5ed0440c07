// Differential fuzzing of the three evaluation strategies: for seeded
// random flat-Horn programs (workloads.h), the answers of
//   (1) demand execution (magic-set rewrite, or its recorded fallback),
//   (2) full bottom-up fixpoint + scan, and
//   (3) top-down SLD resolution (non-recursive seeds only - the
//       top-down solver is documented incomplete for cyclic recursion)
// must be identical. Any divergence prints a self-contained repro and
// appends the seed + program to --fail-log for CI artifact upload.
//
// Each clean seed then runs a randomized churn schedule: batches of
// fact inserts and retracts committed through MutationBatch on an
// Options::incremental session (eval/incremental.h). After every
// batch the incrementally maintained database must equal - canonical
// string for canonical string - a from-scratch fixpoint of the same
// mutated program, and after each of the last two batches the
// demand-executed goal answers must match the full fixpoint's - both
// from the session and from one 2-lane serve::QueryServer over a
// snapshot republished with FreezeIncremental, whose demand requests
// read the snapshot's EDB relations (tombstones included) in place.
// The server answers the goal twice after the first of those batches,
// the second time from the compiled rewrite the first request built,
// and again after the second, whose republish refreshes its workers in
// place.
//
// Each clean seed's full fixpoint must also be byte-identical
// (Database::ToString, insertion order included) at 1 and 4 worker
// lanes: the lane count decides only who runs a round's tasks.
//
// Clean seeds also run a body-permutation sweep: PermuteRuleBodies
// shuffles the literal order of every rule body, and each permuted
// program must reach the identical canonical model under the full
// fixpoint and the identical goal answers under demand execution.
// Join order is an implementation choice the cost-based planner makes
// per statistics snapshot; the model must not depend on it. --perm-only
// restricts a run to this sweep (plus the base magic/full agreement),
// skipping top-down, the lane check and churn, so large seed counts
// stay fast.
//
//   fuzz_equivalence [--seeds N] [--start S] [--perms K] [--perm-only]
//                    [--fail-log PATH]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "workloads.h"

namespace {

using lps::bench::FuzzProgram;
using lps::bench::PermuteRuleBodies;
using lps::bench::RandomFlatHornProgram;

std::vector<std::string> Render(lps::Session* session,
                                const std::vector<lps::Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const lps::Tuple& t : rows) {
    out.push_back(session->TupleToString(t));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

struct Answers {
  bool ok = false;
  std::string error;
  std::vector<std::string> rows;
};

Answers RunMode(const FuzzProgram& fuzz, const char* mode) {
  Answers out;
  lps::Session session(lps::LanguageMode::kLDL);
  lps::Status st = session.Load(fuzz.source);
  if (st.ok()) st = session.Compile();
  if (!st.ok()) {
    out.error = st.ToString();
    return out;
  }
  auto q = session.Prepare(fuzz.goal);
  if (!q.ok()) {
    out.error = q.status().ToString();
    return out;
  }
  lps::Result<lps::AnswerCursor> cursor =
      lps::Status::Internal("unset");
  if (std::strcmp(mode, "magic") == 0) {
    cursor = q->ExecuteDemand();
  } else if (std::strcmp(mode, "full") == 0) {
    st = session.Evaluate();
    if (!st.ok()) {
      out.error = st.ToString();
      return out;
    }
    cursor = q->Execute();
  } else {  // topdown: reads the stored facts, never evaluates
    cursor = q->SolveTopDown();
  }
  if (!cursor.ok()) {
    out.error = cursor.status().ToString();
    return out;
  }
  auto rows = cursor->ToVector();
  if (!rows.ok()) {
    out.error = rows.status().ToString();
    return out;
  }
  out.ok = true;
  out.rows = Render(&session, *rows);
  return out;
}

// Randomized insert/retract churn against an incremental session,
// checked batch-by-batch against a from-scratch fixpoint. Ops are
// exchanged as fact *text* so the two sessions (distinct TermStores)
// stay comparable; inserts recombine argument texts seen in the
// initial fact set position-by-position, so sorts always fit. Returns
// an error description, or "" when every batch converged identically.
std::string ChurnCheck(const FuzzProgram& fuzz, uint64_t seed) {
  lps::Options inc_opts;
  inc_opts.incremental = true;
  lps::Session inc(lps::LanguageMode::kLDL, inc_opts);
  if (!inc.Load(fuzz.source).ok() || !inc.Evaluate().ok()) {
    return "";  // base program does not evaluate: nothing to churn
  }
  auto base = inc.Freeze();  // republished copy-on-write after churn
  if (!base.ok()) return "freeze: " + base.status().ToString();

  // Per-(predicate, position) pools of argument texts.
  struct Pool {
    std::string name;
    std::vector<std::vector<std::string>> args;  // [pos] -> texts
  };
  std::vector<Pool> pools;
  {
    const lps::Signature& sig = inc.program()->signature();
    std::vector<lps::PredicateId> order;
    inc.database()->ForEachFact([&](const lps::Database::Fact& f) {
      size_t i = 0;
      while (i < order.size() && order[i] != f.pred) ++i;
      if (i == order.size()) {
        order.push_back(f.pred);
        pools.push_back({sig.Name(f.pred), {}});
        pools.back().args.resize(f.args.size());
      }
      for (size_t a = 0; a < f.args.size(); ++a) {
        pools[i].args[a].push_back(
            lps::TermToString(*inc.store(), f.args[a]));
      }
    });
  }
  if (pools.empty()) return "";

  lps::bench::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<std::pair<bool, std::string>> log;  // cumulative (insert?)
  // From batch 2 on the churned goal is also served, by one server that
  // lives across batches: its first serve asks twice, so the second
  // request reuses the compiled rewrite, and each later batch
  // republishes copy-on-write against the last snapshot - a fact-only
  // republish the workers refresh in place, keeping their rewrites and
  // compiled programs while the statistics those read stand still.
  lps::serve::SnapshotRegistry registry;
  std::shared_ptr<const lps::serve::Snapshot> served_snap = *base;
  std::unique_ptr<lps::serve::QueryServer> server;
  size_t served_id = 0;
  for (int batch = 0; batch < 4; ++batch) {
    lps::MutationBatch b = inc.Mutate();
    size_t staged = 0;
    const size_t ops = 1 + rng.Below(4);
    for (size_t op = 0; op < ops; ++op) {
      std::vector<lps::Database::Fact> facts;
      inc.database()->ForEachFact(
          [&](const lps::Database::Fact& f) { facts.push_back(f); });
      if (!facts.empty() && rng.Below(2) == 0) {  // retract a live fact
        const lps::Database::Fact& f = facts[rng.Below(facts.size())];
        std::string text = lps::LiteralToString(
            *inc.store(), inc.program()->signature(),
            lps::Literal{f.pred, lps::Tuple(f.args.begin(), f.args.end()),
                         true});
        if (!b.RetractText(text).ok()) continue;
        log.push_back({false, std::move(text)});
      } else {  // insert a recombination of seen arguments
        const Pool& pool = pools[rng.Below(pools.size())];
        std::string text = pool.name + "(";
        for (size_t a = 0; a < pool.args.size(); ++a) {
          if (a > 0) text += ", ";
          text += pool.args[a][rng.Below(pool.args[a].size())];
        }
        text += ")";
        if (!b.AddText(text).ok()) continue;
        log.push_back({true, std::move(text)});
      }
      ++staged;
    }
    if (staged == 0) {
      b.Abort();
      continue;
    }
    lps::Status st = b.Commit();
    if (!st.ok()) return "churn commit: " + st.ToString();

    // From-scratch referee: same source, same cumulative op log
    // (applied before the first Evaluate, i.e. the deferred path),
    // full fixpoint.
    lps::Session ref(lps::LanguageMode::kLDL);
    st = ref.Load(fuzz.source);
    if (st.ok()) st = ref.Compile();
    if (st.ok()) {
      lps::MutationBatch rb = ref.Mutate();
      for (const auto& [insert, text] : log) {
        st = insert ? rb.AddText(text) : rb.RetractText(text);
        if (!st.ok()) break;
      }
      if (st.ok()) st = rb.Commit();
    }
    if (st.ok()) st = ref.Evaluate();
    if (!st.ok()) return "churn referee: " + st.ToString();

    std::string got = inc.database()->ToCanonicalString(
        inc.program()->signature());
    std::string want = ref.database()->ToCanonicalString(
        ref.program()->signature());
    if (got != want) {
      return "incremental db != from-scratch fixpoint after churn "
             "batch " +
             std::to_string(batch) + " (" + std::to_string(log.size()) +
             " ops)";
    }

    if (batch >= 2) {  // demand answers over the churned program
      auto qi = inc.Prepare(fuzz.goal);
      auto qr = ref.Prepare(fuzz.goal);
      if (!qi.ok() || !qr.ok()) return "churn prepare failed";
      auto ci = qi->ExecuteDemand();
      auto cr = qr->Execute();
      if (!ci.ok() || !cr.ok()) {
        return "churn goal: demand=[" + ci.status().ToString() +
               "] full=[" + cr.status().ToString() + "]";
      }
      auto ri = ci->ToVector();
      auto rr = cr->ToVector();
      if (!ri.ok() || !rr.ok()) return "churn cursor failed";
      const std::vector<std::string> want_rows = Render(&ref, *rr);
      if (Render(&inc, *ri) != want_rows) {
        return "churned demand answers != full fixpoint answers";
      }
      auto snap = inc.FreezeIncremental(served_snap);
      if (!snap.ok()) return "churn freeze: " + snap.status().ToString();
      served_snap = *snap;
      registry.Publish(served_snap);
      int asks = 1;
      if (server == nullptr) {
        lps::serve::ServeOptions serve_opts;
        serve_opts.threads = 2;
        server = std::make_unique<lps::serve::QueryServer>(&registry,
                                                           serve_opts);
        auto id = server->Prepare(fuzz.goal);
        if (!id.ok()) return "served prepare: " + id.status().ToString();
        served_id = *id;
        asks = 2;
      }
      for (int ask = 0; ask < asks; ++ask) {
        auto served = server->Execute({served_id, {}});
        if (!served.ok() || !served->status.ok()) {
          return "served goal failed";
        }
        std::vector<std::string> rows = served->rows;
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        if (rows != want_rows) {
          return "served answers over the churned snapshot != full "
                 "fixpoint answers (batch " +
                 std::to_string(batch) + ", ask " +
                 std::to_string(ask) + ")";
        }
      }
    }
  }
  return "";
}

// Full fixpoint of `source` at `lanes` worker lanes, rendered as the
// database's canonical string (sorted, TermStore-independent) or, with
// `canonical` off, as Database::ToString (insertion order included).
// On evaluation error returns "" with the message in *error.
std::string Model(const std::string& source, std::string* error,
                  size_t lanes = 1, bool canonical = true) {
  lps::Options options;
  options.threads = lanes;
  lps::Session session(lps::LanguageMode::kLDL, options);
  lps::Status st = session.Load(source);
  if (st.ok()) st = session.Evaluate();
  if (!st.ok()) {
    *error = st.ToString();
    return "";
  }
  const lps::Signature& sig = session.program()->signature();
  return canonical ? session.database()->ToCanonicalString(sig)
                   : session.database()->ToString(sig);
}

void Dump(const FuzzProgram& fuzz, uint64_t seed) {
  std::fprintf(stderr, "---- seed %llu (%s) ----\n",
               static_cast<unsigned long long>(seed),
               fuzz.recursive ? "recursive" : "nonrecursive");
  std::fprintf(stderr, "%s?- %s.\n", fuzz.source.c_str(),
               fuzz.goal.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seeds = 50;
  uint64_t start = 0;
  uint64_t perms = 3;
  bool perm_only = false;
  const char* fail_log = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--start") == 0 && i + 1 < argc) {
      start = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--perms") == 0 && i + 1 < argc) {
      perms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--perm-only") == 0) {
      perm_only = true;
    } else if (std::strcmp(argv[i], "--fail-log") == 0 && i + 1 < argc) {
      fail_log = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seeds N] [--start S] [--perms K] "
                   "[--perm-only] [--fail-log PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  size_t failures = 0;
  size_t topdown_compared = 0;
  size_t lane_checked = 0;
  size_t churned = 0;
  size_t permutations_checked = 0;
  for (uint64_t seed = start; seed < start + seeds; ++seed) {
    FuzzProgram fuzz = RandomFlatHornProgram(seed);

    Answers magic = RunMode(fuzz, "magic");
    Answers full = RunMode(fuzz, "full");

    auto fail = [&](const std::string& what) {
      ++failures;
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      Dump(fuzz, seed);
      if (fail_log != nullptr) {
        std::ofstream log(fail_log, std::ios::app);
        log << "seed " << seed << ": " << what << "\n"
            << fuzz.source << "?- " << fuzz.goal << ".\n\n";
      }
    };

    if (!magic.ok || !full.ok) {
      fail("evaluation error: magic=[" + magic.error + "] full=[" +
           full.error + "]");
      continue;
    }
    if (magic.rows != full.rows) {
      fail("magic (" + std::to_string(magic.rows.size()) +
           " answers) != full fixpoint (" +
           std::to_string(full.rows.size()) + " answers)");
      continue;
    }
    // Body-permutation sweep: shuffle every rule body and demand the
    // identical canonical model and identical demand answers. This is
    // the planner's soundness contract - the cost-based join order is
    // itself one such permutation.
    if (perms > 0) {
      std::string base_err;
      std::string base_db = Model(fuzz.source, &base_err);
      if (!base_err.empty()) {
        fail("base fixpoint for permutation sweep: " + base_err);
        continue;
      }
      bool perm_failed = false;
      for (uint64_t p = 1; p <= perms; ++p) {
        FuzzProgram perm = fuzz;
        perm.source =
            PermuteRuleBodies(fuzz.source, seed * 1315423911ull + p);
        std::string perr;
        std::string pdb = Model(perm.source, &perr);
        if (!perr.empty()) {
          fail("permutation " + std::to_string(p) +
               " fixpoint error: " + perr);
          perm_failed = true;
          break;
        }
        if (pdb != base_db) {
          fail("permutation " + std::to_string(p) +
               " canonical model differs from source order");
          perm_failed = true;
          break;
        }
        Answers pmagic = RunMode(perm, "magic");
        if (!pmagic.ok) {
          fail("permutation " + std::to_string(p) +
               " demand error: " + pmagic.error);
          perm_failed = true;
          break;
        }
        if (pmagic.rows != full.rows) {
          fail("permutation " + std::to_string(p) +
               " demand answers differ from source-order fixpoint");
          perm_failed = true;
          break;
        }
        ++permutations_checked;
      }
      if (perm_failed) continue;
    }
    if (perm_only) continue;

    // Top-down comparison only where the solver is complete: no cyclic
    // recursion, no grouping clauses (rejected by TopDownSolver).
    if (!fuzz.recursive && !fuzz.has_grouping) {
      Answers topdown = RunMode(fuzz, "topdown");
      if (!topdown.ok) {
        fail("top-down error: " + topdown.error);
        continue;
      }
      ++topdown_compared;
      if (topdown.rows != full.rows) {
        fail("top-down (" + std::to_string(topdown.rows.size()) +
             " answers) != full fixpoint (" +
             std::to_string(full.rows.size()) + " answers)");
        continue;
      }
    }

    // Lane-count determinism: the same database, byte for byte, at 1
    // and 4 lanes.
    std::string lane_err;
    std::string one_lane = Model(fuzz.source, &lane_err, 1, false);
    std::string four_lanes =
        lane_err.empty() ? Model(fuzz.source, &lane_err, 4, false) : "";
    if (!lane_err.empty()) {
      fail("lane check fixpoint error: " + lane_err);
      continue;
    }
    if (one_lane != four_lanes) {
      fail("1-lane and 4-lane fixpoints differ (Database::ToString)");
      continue;
    }
    ++lane_checked;

    // Clean seed: drive a churn schedule through the incremental
    // maintainer and re-check convergence after every batch.
    std::string churn = ChurnCheck(fuzz, seed);
    if (!churn.empty()) {
      fail(churn);
      continue;
    }
    ++churned;
  }

  std::printf(
      "fuzz_equivalence: %llu seeds [%llu, %llu), %zu with top-down "
      "comparison, %zu with 1-vs-4-lane checks, %zu with churn "
      "schedules, %zu body permutations, %zu failures\n",
      static_cast<unsigned long long>(seeds),
      static_cast<unsigned long long>(start),
      static_cast<unsigned long long>(start + seeds), topdown_compared,
      lane_checked, churned, permutations_checked, failures);
  return failures == 0 ? 0 : 1;
}

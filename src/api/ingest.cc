// Pipelined parallel bulk loader (Session::LoadFactsParallel).
//
// Pipeline:  split -> parse (N lanes) -> merge (sequential).
//
//   split   The source is cut into fact-aligned chunks: a boundary is
//           only ever placed after a newline whose line ends a fact
//           (last non-blank character '.'), so a fact spanning
//           physical lines is never torn apart and the chunk set is a
//           clean partition of the input.
//   parse   Each lane owns a TermStore::Clone scratch plus a copy of
//           the session signature rebound to the scratch's symbol
//           table - the same prefix-stable scratch-intern discipline
//           serve::QueryServer uses. Lanes take chunks round-robin and
//           run the full sequential front end per chunk (ParseSource,
//           LowerParsedUnit, CheckFact and ValidateGoal per fact)
//           against their scratch, so every error the sequential
//           loader would raise is raised here, before the session is
//           touched.
//   merge   Three passes over the chunks. Pass A (sequential) interns
//           the lanes' first-occurrence term lists into the session
//           store in chunk order, filling per-lane id translation
//           caches. Pass B (parallel, same lanes) rewrites every
//           fact in place - scratch PredicateIds and TermIds become
//           session ids through the now-complete caches (ids below
//           the clone point are identical by prefix-stability, a
//           "remap hit") - and precomputes each row's dedup hash.
//           Pass C (sequential) drains chunks in input order into
//           relations presized via Database::Reserve from the chunk
//           fact counts (one growth rehash instead of log-many),
//           prefetching dedup slots a few facts ahead and raising
//           each row's base count. Only A and C are order-sensitive,
//           and both touch far less memory per fact than the full
//           remap, so the sequential fraction of the pipeline stays
//           small (see DESIGN.md section 19).
//
// Determinism: the merge visits facts in exactly the order the
// sequential loader would (chunks partition the source in order), so
// database row order, base counts and active-domain order are all
// byte-identical to Load + Compile + Evaluate - ToString parity,
// strictly stronger than the ToCanonicalString contract. Inferred
// declarations match because per-chunk MergeDecl lattice joins are
// associative and ground fact arguments never contribute the
// "unknown" bottom element; the cross-chunk join therefore equals the
// sequential single-pass join, and fresh predicates are declared in
// the same sorted (name, arity) order LowerParsedUnit uses.
//
// Transactionality: every fallible check (parse, facts-only shape,
// sort inference, validation, the fact checks) runs against lane
// scratches during the dry run; the first error in chunk order is
// returned and the session store, signature, program and database are
// untouched. The commit that follows a clean dry run cannot fail.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/session.h"
#include "base/worker_pool.h"
#include "eval/bottomup.h"
#include "lang/validate.h"

namespace lps {
namespace {

// Chunks this small parse in microseconds; splitting finer only adds
// per-chunk front-end overhead.
constexpr size_t kMinChunkBytes = 1024;
// Several chunks per lane so a slow chunk (dense facts) doesn't leave
// the other lanes idle at the tail of the parse phase.
constexpr size_t kChunksPerLane = 4;

constexpr TermId kUnmapped = static_cast<TermId>(-1);

// First position after a newline at or beyond `pos` whose line ends a
// fact (last non-blank character is the terminating '.'); size() when
// no such boundary remains. Lines ending mid-fact or in a comment
// never become boundaries.
size_t AlignChunkEnd(const std::string& s, size_t pos) {
  for (;;) {
    size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) return s.size();
    size_t j = nl;
    while (j > 0 &&
           (s[j - 1] == ' ' || s[j - 1] == '\t' || s[j - 1] == '\r')) {
      --j;
    }
    if (j > 0 && s[j - 1] == '.') return nl + 1;
    pos = nl + 1;
  }
}

// One parsed chunk. Facts carry scratch TermIds / PredicateIds until
// merge pass B rewrites them to session ids in place.
struct ChunkResult {
  Status status = Status::OK();
  std::vector<Literal> facts;
  size_t newlines = 0;
  // Scratch ids minted by this chunk's lane that first appear (as a
  // fact argument) in this chunk - the lane's intern worklist slice.
  // Merge pass A re-interns exactly these, in chunk order, which
  // reproduces the sequential loader's first-occurrence intern order
  // without walking every argument of every fact sequentially.
  std::vector<TermId> new_ids;
  // Relation::HashTuple of each fact's (session-id) argument row,
  // aligned with `facts`; filled by merge pass B.
  std::vector<size_t> hashes;
};

// One lane's scratch world. Prefix-stable (TermStore::Clone): every
// TermId and Symbol below the clone point resolves identically in the
// scratch and the session store, so only ids minted during the parse
// need remapping at merge time.
struct LaneScratch {
  std::unique_ptr<TermStore> store;
  std::unique_ptr<Signature> sig;
  TermId term_base = 0;  // session store size at clone
  size_t sig_base = 0;   // session signature size at copy
};

// Re-interns a scratch term into `dst`, bottom-up through `cache`
// (indexed by id - term_base). Ids below the clone point are already
// session-valid and pass through untouched.
TermId RemapTerm(const TermStore& scratch, TermId id, TermStore* dst,
                 TermId term_base, std::vector<TermId>* cache) {
  if (id < term_base) return id;
  TermId& slot = (*cache)[id - term_base];
  if (slot != kUnmapped) return slot;
  std::vector<TermId> args;
  args.reserve(scratch.args(id).size());
  for (TermId a : scratch.args(id)) {
    args.push_back(RemapTerm(scratch, a, dst, term_base, cache));
  }
  const TermNode& n = scratch.node(id);
  TermId out = kUnmapped;
  switch (n.kind) {
    case TermKind::kConstant:
      out = dst->MakeConstant(scratch.symbols().Name(n.symbol));
      break;
    case TermKind::kInt:
      out = dst->MakeInt(n.int_value);
      break;
    case TermKind::kFunction:
      out = dst->MakeFunction(scratch.symbols().Name(n.symbol),
                              std::move(args));
      break;
    case TermKind::kSet:
      // MakeSet re-canonicalizes under session ids; remapping preserves
      // the relative order of same-chunk terms, so the canonical form
      // matches what sequential lowering would intern.
      out = dst->MakeSet(std::move(args));
      break;
    case TermKind::kVariable:
      // Unreachable for ground facts; kept total for safety.
      out = dst->MakeVariable(scratch.symbols().Name(n.symbol), n.sort);
      break;
  }
  slot = out;
  return out;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Status Session::LoadFactsParallel(const std::string& source,
                                  size_t lanes) {
  LPS_RETURN_IF_ERROR(Compile());
  EvalStats::IngestStats ingest;

  // ---- Split ---------------------------------------------------------
  const size_t want_lanes =
      lanes != 0 ? lanes : WorkerPool::ResolveLanes(options_.threads);
  std::vector<std::pair<size_t, size_t>> chunks;
  {
    const size_t by_size =
        std::max<size_t>(1, source.size() / kMinChunkBytes);
    const size_t target =
        std::max<size_t>(1, std::min(want_lanes * kChunksPerLane, by_size));
    size_t begin = 0;
    for (size_t i = 0; begin < source.size(); ++i) {
      size_t end = i + 1 >= target
                       ? source.size()
                       : AlignChunkEnd(source, std::max(
                             begin, (i + 1) * source.size() / target));
      chunks.emplace_back(begin, end);
      begin = end;
    }
  }
  // Idle lanes would still pay a full scratch store clone; don't spawn
  // more lanes than there are chunks to parse.
  const size_t lane_count = std::min<size_t>(
      std::max<size_t>(1, want_lanes), std::max<size_t>(1, chunks.size()));
  ingest.lanes = lane_count;
  ingest.chunks = chunks.size();

  // ---- Parse (parallel dry run) --------------------------------------
  const auto parse_t0 = std::chrono::steady_clock::now();
  std::vector<LaneScratch> lane_state(lane_count);
  for (LaneScratch& ls : lane_state) {
    ls.term_base = static_cast<TermId>(store_->size());
    ls.sig_base = program_->signature().size();
    ls.store = store_->Clone();
    ls.sig = std::make_unique<Signature>(program_->signature());
    ls.sig->RebindSymbols(&ls.store->symbols());
  }
  std::vector<ChunkResult> results(chunks.size());
  {
    WorkerPool pool(lane_count);
    pool.Run([&](size_t lane) {
      LaneScratch& ls = lane_state[lane];
      // Scratch ids already claimed by an earlier chunk of THIS lane
      // (indexed by id - term_base). A lane's chunks are drained in
      // ascending order at merge time, so listing each id at the
      // lane's first sight of it puts it in the earliest chunk that
      // can intern it.
      std::vector<bool> listed;
      for (size_t ci = lane; ci < chunks.size(); ci += lane_count) {
        ChunkResult& res = results[ci];
        const std::string text =
            source.substr(chunks[ci].first,
                          chunks[ci].second - chunks[ci].first);
        res.newlines =
            static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
        Result<ParsedUnit> parsed = ParseSource(text);
        if (!parsed.ok()) {
          res.status = parsed.status();
          continue;
        }
        if (!parsed->decls.empty() || !parsed->queries.empty()) {
          res.status = Status::InvalidArgument(
              "bulk load accepts ground facts only (found a predicate "
              "declaration or query)");
          continue;
        }
        Result<LoweredUnit> lowered =
            LowerParsedUnit(*parsed, mode_, ls.store.get(), ls.sig.get());
        if (!lowered.ok()) {
          res.status = lowered.status();
          continue;
        }
        if (!lowered->clauses.empty()) {
          res.status = Status::InvalidArgument(
              "bulk load accepts ground facts only (found a rule, "
              "grouping head, or non-ground clause)");
          continue;
        }
        for (const Literal& f : lowered->facts) {
          res.status = CheckFact(*ls.store, *ls.sig, f.pred, f.args);
          if (res.status.ok()) {
            res.status = ValidateGoal(*ls.store, *ls.sig, f, mode_);
          }
          if (!res.status.ok()) break;
        }
        if (!res.status.ok()) continue;
        res.facts = std::move(lowered->facts);
        // First-occurrence worklist for merge pass A. Top-level
        // argument ids suffice: RemapTerm re-interns subterms
        // bottom-up, in the same order sequential lowering would.
        for (const Literal& f : res.facts) {
          for (TermId t : f.args) {
            if (t < ls.term_base) continue;
            const size_t idx = t - ls.term_base;
            if (idx >= listed.size()) {
              listed.resize(ls.store->size() - ls.term_base, false);
            }
            if (!listed[idx]) {
              listed[idx] = true;
              res.new_ids.push_back(t);
            }
          }
        }
      }
    });
  }
  parse_count_ += chunks.size();

  // First error in chunk order wins, tagged with the chunk's starting
  // line so "at line N" messages (chunk-relative) can be located.
  {
    size_t base_line = 1;
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      const ChunkResult& res = results[ci];
      if (!res.status.ok()) {
        return Status(res.status.code(),
                      res.status.message() +
                          " [bulk-load chunk starting at line " +
                          std::to_string(base_line) + "]");
      }
      base_line += res.newlines;
    }
  }

  ingest.parse_ms = MsSince(parse_t0);
  for (const LaneScratch& ls : lane_state) {
    ingest.scratch_terms += ls.store->size() - ls.term_base;
  }

  // ---- Merge (sequential, infallible from here) ----------------------
  const auto merge_t0 = std::chrono::steady_clock::now();

  // Fresh predicates: lattice-join each lane's inferred declarations
  // (equal sorts keep, conflicting sorts widen to kAny - the same join
  // MergeDecl applies within one unit) and declare in sorted (name,
  // arity) order, exactly as the sequential front end would.
  Signature& sig = program_->signature();
  std::map<std::pair<std::string, size_t>, std::vector<Sort>> fresh;
  for (const LaneScratch& ls : lane_state) {
    for (PredicateId p = static_cast<PredicateId>(ls.sig_base);
         p < ls.sig->size(); ++p) {
      const PredicateInfo& info = ls.sig->info(p);
      auto [it, inserted] = fresh.try_emplace(
          std::make_pair(ls.sig->Name(p), info.arity()), info.arg_sorts);
      if (!inserted) {
        for (size_t i = 0; i < it->second.size(); ++i) {
          if (it->second[i] != info.arg_sorts[i]) {
            it->second[i] = Sort::kAny;
          }
        }
      }
    }
  }
  for (const auto& [key, sorts] : fresh) {
    // Cannot fail: the lane signatures started as copies of the session
    // signature, so a predicate fresh in a lane is unknown here.
    LPS_RETURN_IF_ERROR(sig.Declare(key.first, sorts).status());
  }

  // Scratch PredicateId -> session PredicateId, per lane.
  std::vector<std::vector<PredicateId>> pred_map(lane_count);
  for (size_t lane = 0; lane < lane_count; ++lane) {
    const LaneScratch& ls = lane_state[lane];
    pred_map[lane].resize(ls.sig->size());
    for (PredicateId p = 0; p < ls.sig->size(); ++p) {
      pred_map[lane][p] =
          p < ls.sig_base
              ? p
              : sig.Lookup(ls.sig->Name(p), ls.sig->info(p).arity());
    }
  }

  // Pass A - intern (sequential). Re-intern each chunk's
  // first-occurrence worklist in chunk order, filling the per-lane
  // translation caches. This is the only place session TermIds are
  // minted, and it visits each distinct new term once per lane that
  // saw it (a hash-cons hit after the first), so the session store
  // ends up with exactly the ids, in exactly the order, the
  // sequential loader's parse would have interned.
  std::vector<std::vector<TermId>> caches(lane_count);
  for (size_t lane = 0; lane < lane_count; ++lane) {
    caches[lane].assign(
        lane_state[lane].store->size() - lane_state[lane].term_base,
        kUnmapped);
  }
  // Capacity only (no ids minted), so the interns below pay one
  // up-front rehash per table. scratch_terms over-counts distinct new
  // terms (lanes double-intern shared constants); reserve is fine
  // with an upper bound.
  store_->Reserve(ingest.scratch_terms);
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    const size_t lane = ci % lane_count;
    const LaneScratch& ls = lane_state[lane];
    for (TermId id : results[ci].new_ids) {
      RemapTerm(*ls.store, id, store_.get(), ls.term_base, &caches[lane]);
    }
  }

  // Pass B - translate + hash (parallel). With the caches complete,
  // rewriting a fact is a pure per-lane read of shared state: each
  // lane rewrites its own chunks' facts in place (scratch pred ->
  // session pred, scratch args -> cached session ids) and precomputes
  // the dedup hash pass C will insert under.
  {
    std::vector<size_t> lane_hits(lane_count, 0);
    WorkerPool pool(lane_count);
    pool.Run([&](size_t lane) {
      const LaneScratch& ls = lane_state[lane];
      const std::vector<TermId>& cache = caches[lane];
      const std::vector<PredicateId>& pmap = pred_map[lane];
      size_t hits = 0;
      for (size_t ci = lane; ci < chunks.size(); ci += lane_count) {
        ChunkResult& res = results[ci];
        res.hashes.reserve(res.facts.size());
        for (Literal& f : res.facts) {
          f.pred = pmap[f.pred];
          for (TermId& t : f.args) {
            if (t < ls.term_base) {
              ++hits;  // prefix-stable: already a session id
            } else {
              t = cache[t - ls.term_base];
            }
          }
          res.hashes.push_back(Relation::HashTuple(f.args));
        }
      }
      lane_hits[lane] = hits;
    });
    for (size_t h : lane_hits) ingest.remap_hits += h;
  }

  // Presize relations from the chunk fact counts: one Reserve per
  // predicate replaces the doubling rehashes the row-by-row inserts
  // would pay. Duplicate facts make the counts an upper bound, which
  // only ever rounds the table up to the next power of two.
  {
    std::unordered_map<PredicateId, size_t> pred_counts;
    for (const ChunkResult& res : results) {
      for (const Literal& f : res.facts) ++pred_counts[f.pred];
    }
    std::vector<std::pair<PredicateId, size_t>> ordered(
        pred_counts.begin(), pred_counts.end());
    std::sort(ordered.begin(), ordered.end());
    for (const auto& [pred, count] : ordered) {
      ingest.presize_rehashes_avoided += db_->Reserve(pred, count);
    }
  }

  // Pass C - insert (sequential). Drain chunks in input order into
  // the database - the same row and active-domain order the
  // sequential loader produces, which is what makes the result
  // byte-identical at every lane count. BulkInserter amortizes the
  // per-fact relation-map probe and the per-arg domain-registration
  // probe; the dedup slot of a fact a few positions ahead is
  // prefetched so the probe's dependent load is usually in cache by
  // the time it runs. Every check (declared pred, arity, groundness,
  // no special predicates) already ran against the scratches.
  constexpr size_t kPrefetchAhead = 16;
  Database::BulkInserter inserter(db_.get());
  for (ChunkResult& res : results) {
    ingest.facts_parsed += res.facts.size();
    const size_t n = res.facts.size();
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        inserter.Prefetch(res.facts[i + kPrefetchAhead].pred,
                          res.hashes[i + kPrefetchAhead]);
      }
      const Literal& f = res.facts[i];
      if (inserter.Insert(f.pred, f.args, res.hashes[i]).added) {
        ++ingest.facts_inserted;
      }
    }
  }
  ingest.merge_ms = MsSince(merge_t0);

  if (ingest.facts_parsed > 0) {
    // Same epoch discipline as Compile() committing staged facts.
    ++fact_epoch_;
    converged_ = false;
  }
  eval_stats_.ingest = ingest;
  return Status::OK();
}

}  // namespace lps

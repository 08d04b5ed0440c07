// Pipelined parallel bulk loader (Session::LoadFactsParallel).
//
// Pipeline:  split -> parse (N lanes) -> merge.
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
//           parse each one in place (a view of the source) with the
//           one parser, handing it a GroundFacts: a ground atom of
//           constants and integers - every fact of a typical bulk file
//           - is interned into the scratch as it is read and becomes a
//           flat row [predicate slot, args...] of the chunk's one
//           TermId array. It builds no PClause, skips LowerParsedUnit,
//           and its sort checks ran once per predicate and argument
//           position. The first clause that is anything else - a fact
//           with a set or function term, or a rule, which is an error
//           here - and every clause after it in the chunk take the
//           clause pipeline (LowerParsedUnit against a per-chunk copy
//           of the signature, CheckFact and ValidateGoal per fact);
//           their facts follow the flat rows, which keeps the chunk in
//           source order. Every error the sequential loader would
//           raise is raised here, before the session is touched.
//   merge   A pipeline over the chunks, in chunk order. Pass A (lane
//           0) interns each chunk's new terms into the session store,
//           filling per-lane id translation caches. Pass B (the
//           translator, lane 1) turns the rows of each chunk lane 0 has
//           passed into session ids through the caches (ids below the
//           clone point are identical by prefix-stability, a "remap
//           hit") and writes each straight into its place in its
//           relation's staged load (Relation::BulkLoad), one per
//           predicate, presized from the per-chunk row counts. Pass C
//           (the translator and every later lane) probes the dedup
//           tables: each table's slots are cut into one part per
//           probing lane and every lane probes its part's rows of each
//           chunk the translator has passed, so equal rows meet in one
//           part and no two lanes share a slot. Then lane 0 registers
//           every row's terms in the active domains in input order
//           while the other lanes end the loads: first occurrences move
//           down over repeats in input order and base counts are set.
//           With one lane the same steps run in turn. Only pass A and
//           registration are sequential by nature; they are what
//           bounds the lane scaling (see DESIGN.md section 19). The
//           lanes then free their own scratches and rows.
//
// Determinism: chunks partition the source in order, pass A interns
// each chunk's new terms in the order lowering would first meet them,
// a staged load keeps first occurrences in input order, and
// registration walks the rows in input order, so session TermIds,
// database row order, base counts and active-domain order are all
// byte-identical to Load + Compile + Evaluate at every lane count -
// ToString parity, strictly stronger than the
// ToCanonicalString contract. Inferred declarations match because each
// chunk infers its fresh predicates from its own facts alone (a
// per-chunk signature copy, never one grown by the lane's earlier
// chunks), MergeDecl lattice joins are associative and commutative,
// and ground fact arguments never contribute the "unknown" bottom
// element; the cross-chunk join therefore equals the sequential
// single-pass join, and fresh predicates are declared in the same
// sorted (name, arity) order LowerParsedUnit uses.
//
// Transactionality: every fallible check (parse, facts-only shape,
// sort inference, validation, the fact checks) runs against lane
// scratches during the dry run; the first error in chunk order is
// returned and the session store, signature, program and database are
// untouched. The commit that follows a clean dry run cannot fail.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
size_t AlignChunkEnd(std::string_view s, size_t pos) {
  for (;;) {
    size_t nl = s.find('\n', pos);
    if (nl == std::string_view::npos) return s.size();
    size_t j = nl;
    while (j > 0 &&
           (s[j - 1] == ' ' || s[j - 1] == '\t' || s[j - 1] == '\r')) {
      --j;
    }
    if (j > 0 && s[j - 1] == '.') return nl + 1;
    pos = nl + 1;
  }
}

// A predicate that heads rows of one chunk (a row's slot indexes the
// chunk's list of these).
struct ChunkPred {
  Symbol name;     // in the lane scratch's symbol table
  uint32_t arity;
  PredicateId id;  // in the session signature, or kInvalidPredicate
  // A fresh predicate's sorts as this chunk alone declares it.
  std::vector<Sort> sorts;
  size_t rows = 0;
  // Filled by the merge: the session predicate, and the input index
  // (Relation::BulkLoad) of this chunk's first row of it - a chunk's
  // rows of one predicate are consecutive in the relation's input.
  PredicateId session = kInvalidPredicate;
  size_t first = 0;
};

// One parsed chunk.
struct ChunkResult {
  Status status = Status::OK();
  size_t newlines = 0;
  // The chunk's facts in source order, one row per fact:
  // [slot into preds, arg1, ..., argn], in scratch ids.
  std::vector<TermId> cells;
  std::vector<ChunkPred> preds;
  size_t rows = 0;
  size_t general_rows = 0;  // facts that took the clause pipeline
  // The scratch ids this chunk minted, [new_begin, new_end): the terms
  // its lane met first here - the lane's intern worklist slice. The
  // flat rows intern as they are read and lowering mints after them,
  // clause by clause, so ascending ids are the order sequential
  // lowering first meets these terms; merge pass A re-interns them in
  // chunk order and in that order, without walking every argument of
  // every fact sequentially.
  TermId new_begin = 0;
  TermId new_end = 0;
};

// One lane's scratch world. Prefix-stable (TermStore::Clone): every
// TermId and Symbol below the clone point resolves identically in the
// scratch and the session store, so only ids minted during the parse
// need remapping at merge time.
struct LaneScratch {
  std::unique_ptr<TermStore> store;
  std::unique_ptr<Signature> sig;  // the session signature, never grown
  TermId term_base = 0;            // session store size at clone
};

// CheckFact, then ValidateGoal: the checks every loaded fact passes.
Status CheckRow(const TermStore& store, const Signature& sig,
                PredicateId pred, std::span<const TermId> args,
                LanguageMode mode) {
  LPS_RETURN_IF_ERROR(CheckFact(store, sig, pred, args));
  Literal fact;
  fact.pred = pred;
  fact.args.assign(args.begin(), args.end());
  return ValidateGoal(store, sig, fact, mode);
}

// Parses one chunk into `res` against the lane's scratch. With
// `ground_atom_path` false every fact takes the clause pipeline (the
// oracle tests compare the flat path with).
void ParseChunk(std::string_view text, const LaneScratch& ls,
                LanguageMode mode, bool ground_atom_path,
                ChunkResult* res) {
  res->newlines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  TermStore* store = ls.store.get();
  res->new_begin = static_cast<TermId>(store->size());
  GroundFacts ground(store, ls.sig.get());
  Result<ParsedUnit> parsed =
      ParseSource(text, ground_atom_path ? &ground : nullptr);
  if (!parsed.ok()) {
    res->status = parsed.status();
    return;
  }
  if (!parsed->decls.empty() || !parsed->queries.empty()) {
    res->status = Status::InvalidArgument(
        "bulk load accepts ground facts only (found a predicate "
        "declaration or query)");
    return;
  }
  for (const GroundFacts::Pred& p : ground.preds()) {
    res->preds.push_back({p.name, p.arity, p.id,
                          p.id == kInvalidPredicate
                              ? std::vector<Sort>(p.arity, Sort::kAtom)
                              : std::vector<Sort>{},
                          p.rows});
  }
  // The clause pipeline, for the clauses after the flat prefix (every
  // clause, for the oracle). It mints its terms after the prefix's, in
  // source order, so the chunk's new ids stay ascending in the order
  // lowering first meets them. Its errors outrank the fact checks', as
  // in the sequential loader.
  std::optional<Signature> chunk_sig;
  std::vector<Literal> facts;
  if (!parsed->clauses.empty()) {
    chunk_sig.emplace(*ls.sig);
    Result<LoweredUnit> lowered =
        LowerParsedUnit(*parsed, mode, store, &*chunk_sig, &ground);
    if (!lowered.ok()) {
      res->status = lowered.status();
      return;
    }
    if (!lowered->clauses.empty()) {
      res->status = Status::InvalidArgument(
          "bulk load accepts ground facts only (found a rule, grouping "
          "head, or non-ground clause)");
      return;
    }
    facts = std::move(lowered->facts);
  }

  // The flat rows come first in source order. Facts of a predicate
  // whose checks fail report the first of them, exactly as the
  // per-fact checks would; rows of every other predicate were checked
  // when their predicate was first seen.
  const std::vector<TermId>& flat = ground.cells();
  const bool all_pass = std::all_of(
      ground.preds().begin(), ground.preds().end(),
      [](const GroundFacts::Pred& p) { return p.checks_pass; });
  for (size_t pos = 0; !all_pass && pos < flat.size();
       pos += 1 + ground.preds()[flat[pos]].arity) {
    const GroundFacts::Pred& p = ground.preds()[flat[pos]];
    if (p.checks_pass) continue;
    res->status = CheckRow(
        *store, *ls.sig, p.id,
        std::span<const TermId>(flat.data() + pos + 1, p.arity), mode);
    if (!res->status.ok()) return;
  }
  res->cells = std::move(ground.cells());
  for (const Literal& f : facts) {
    res->status = CheckRow(*store, *chunk_sig, f.pred, f.args, mode);
    if (!res->status.ok()) return;
    const Symbol name = chunk_sig->info(f.pred).name;
    const uint32_t arity = static_cast<uint32_t>(f.args.size());
    uint32_t slot = 0;
    while (slot < res->preds.size() &&
           (res->preds[slot].name != name || res->preds[slot].arity != arity)) {
      ++slot;
    }
    if (slot == res->preds.size()) {
      res->preds.push_back({name, arity, ls.sig->Lookup(name, arity), {}, 0});
    }
    ++res->preds[slot].rows;
    res->cells.push_back(slot);
    res->cells.insert(res->cells.end(), f.args.begin(), f.args.end());
  }
  res->general_rows = facts.size();
  res->rows = ground.rows() + facts.size();
  res->new_end = static_cast<TermId>(store->size());
  if (chunk_sig.has_value()) {
    for (ChunkPred& p : res->preds) {
      if (p.id == kInvalidPredicate) {
        p.sorts =
            chunk_sig->info(chunk_sig->Lookup(p.name, p.arity)).arg_sorts;
      }
    }
  }
}

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
      // MakeSet re-canonicalizes under session ids; pass A reaches a
      // set only after its elements, so only the set node is minted.
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
  return LoadFacts(source, lanes, /*ground_atom_path=*/true);
}

Status Session::LoadFacts(std::string_view source, size_t lanes,
                          bool ground_atom_path) {
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
  WorkerPool pool(lane_count);

  // ---- Parse (parallel dry run) --------------------------------------
  const auto parse_t0 = std::chrono::steady_clock::now();
  std::vector<LaneScratch> lane_state(lane_count);
  for (LaneScratch& ls : lane_state) {
    ls.term_base = static_cast<TermId>(store_->size());
    ls.store = store_->Clone();
    ls.sig = std::make_unique<Signature>(program_->signature());
    ls.sig->RebindSymbols(&ls.store->symbols());
  }
  std::vector<ChunkResult> results(chunks.size());
  pool.Run([&](size_t lane) {
    for (size_t ci = lane; ci < chunks.size(); ci += lane_count) {
      ParseChunk(source.substr(chunks[ci].first,
                               chunks[ci].second - chunks[ci].first),
                 lane_state[lane], mode_, ground_atom_path, &results[ci]);
    }
  });
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

  // ---- Merge (infallible from here) ----------------------------------
  const auto merge_t0 = std::chrono::steady_clock::now();

  // Fresh predicates: lattice-join every chunk's inferred declarations
  // (equal sorts keep, conflicting sorts widen to kAny - the same join
  // MergeDecl applies within one unit) and declare in sorted (name,
  // arity) order, exactly as the sequential front end would.
  Signature& sig = program_->signature();
  std::map<std::pair<std::string, size_t>, std::vector<Sort>> fresh;
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    const SymbolTable& names = lane_state[ci % lane_count].store->symbols();
    for (const ChunkPred& p : results[ci].preds) {
      if (p.id != kInvalidPredicate) continue;
      auto [it, inserted] =
          fresh.try_emplace(std::make_pair(names.Name(p.name), p.arity),
                            p.sorts);
      if (inserted) continue;
      for (size_t i = 0; i < it->second.size(); ++i) {
        if (it->second[i] != p.sorts[i]) it->second[i] = Sort::kAny;
      }
    }
  }
  for (const auto& [key, sorts] : fresh) {
    // Cannot fail: the lane signatures are copies of the session
    // signature, so a predicate fresh in a chunk is unknown here.
    LPS_RETURN_IF_ERROR(sig.Declare(key.first, sorts).status());
  }
  // Chunk predicate slots -> session PredicateIds; each chunk's rows of
  // a predicate take the next input indexes of its relation's load.
  std::vector<size_t> pred_rows(sig.size(), 0);
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    const SymbolTable& names = lane_state[ci % lane_count].store->symbols();
    for (ChunkPred& p : results[ci].preds) {
      p.session = p.id != kInvalidPredicate
                      ? p.id
                      : sig.Lookup(names.Name(p.name), p.arity);
      p.first = pred_rows[p.session];
      pred_rows[p.session] += p.rows;
    }
    ingest.facts_parsed += results[ci].rows;
    ingest.general_path_facts += results[ci].general_rows;
  }

  // Pass A - intern (lane 0). Re-intern each chunk's new terms in chunk
  // order, filling the per-lane translation caches. This is the only
  // place session TermIds are minted, and it visits each distinct new
  // term once per lane that saw it (a hash-cons hit after the first),
  // so the session store ends up with exactly the ids, in exactly the
  // order, the sequential loader's lowering would have interned.
  std::vector<std::vector<TermId>> caches(lane_count);
  for (size_t lane = 0; lane < lane_count; ++lane) {
    caches[lane].assign(
        lane_state[lane].store->size() - lane_state[lane].term_base,
        kUnmapped);
  }
  // Capacity only (no ids minted), so the interns below pay one
  // up-front rehash per table. scratch_terms over-counts distinct new
  // terms (lanes double-intern shared constants); reserve is fine with
  // an upper bound.
  store_->Reserve(ingest.scratch_terms);
  // A constant's name is prefetched into the session symbol index a
  // few terms ahead of its intern, so the probe's first miss overlaps
  // the interns before it.
  constexpr TermId kInternAhead = 8;
  auto intern = [&](size_t ci) {
    const size_t lane = ci % lane_count;
    const LaneScratch& ls = lane_state[lane];
    const TermId end = results[ci].new_end;
    for (TermId id = results[ci].new_begin; id < end; ++id) {
      if (id + kInternAhead < end) {
        const TermNode& ahead = ls.store->node(id + kInternAhead);
        if (ahead.kind == TermKind::kConstant) {
          store_->symbols().Prefetch(ls.store->symbols().Name(ahead.symbol));
        }
      }
      RemapTerm(*ls.store, id, store_.get(), ls.term_base, &caches[lane]);
    }
  };

  // Pass B - translate (the translator lane). One staged load per
  // predicate with facts (Relation::BulkLoad), its dedup table presized
  // for all of them. Once pass A has passed a chunk, the caches hold
  // every id its rows use: each row's scratch ids become session ids
  // (ids below the clone point already are, a "remap hit"), written
  // straight into the row's place in its relation's load.
  const size_t translator = lane_count > 1 ? 1 : 0;
  const size_t parts = lane_count - translator;
  std::vector<std::optional<Relation::BulkLoad>> loads(sig.size());
  auto begin_loads = [&] {
    for (PredicateId pred = 0; pred < sig.size(); ++pred) {
      if (pred_rows[pred] == 0) continue;
      loads[pred].emplace(&db_->relation(pred), pred_rows[pred], parts);
      ingest.presize_rehashes_avoided += loads[pred]->rehashes_avoided();
    }
  };
  // Each row of chunk ci, in order, to f(pred, input index, args) with
  // its arguments in session ids; returns the remap hits.
  auto for_rows = [&](size_t ci, auto&& f) {
    const ChunkResult& res = results[ci];
    const TermId term_base = lane_state[ci % lane_count].term_base;
    const std::vector<TermId>& cache = caches[ci % lane_count];
    std::vector<size_t> next(res.preds.size());
    for (size_t s = 0; s < res.preds.size(); ++s) next[s] = res.preds[s].first;
    std::vector<TermId> args;
    size_t hits = 0;
    const TermId* cell = res.cells.data();
    for (size_t r = 0; r < res.rows; ++r) {
      const ChunkPred& p = res.preds[*cell];
      const size_t i = next[*cell++]++;
      args.resize(p.arity);
      for (TermId& a : args) {
        const TermId id = *cell++;
        hits += id < term_base;
        a = id < term_base ? id : cache[id - term_base];
      }
      f(p, i, TupleRef(args));
    }
    return hits;
  };
  auto translate = [&](size_t ci) {
    ingest.remap_hits +=
        for_rows(ci, [&](const ChunkPred& p, size_t i, TupleRef args) {
          Relation::BulkLoad& load = *loads[p.session];
          std::copy(args.begin(), args.end(), load.Row(i));
          load.Staged(i);
        });
  };

  // Pass C - probe (the translator lane and every lane after it, one
  // part of every table each). A part's facts of the chunk, in input
  // order, prefetching the home slot of one a few positions ahead.
  // Every check (declared pred, arity, groundness, no special
  // predicates, sorts) already ran against the scratches.
  auto probe = [&](size_t ci, size_t part) {
    const size_t ahead = 16 * parts;
    for (const ChunkPred& p : results[ci].preds) {
      Relation::BulkLoad& load = *loads[p.session];
      const size_t end = p.first + p.rows;
      for (size_t i = p.first; i < end; ++i) {
        if (i + ahead < end && load.part(i + ahead) == part) {
          load.Prefetch(i + ahead);
        }
        if (load.part(i) == part) load.Probe(part, i);
      }
    }
  };

  // The passes run as a pipeline over the chunks, each stage publishing
  // how far it got (release/acquire): lane 0 interns, the translator
  // translates what lane 0 has passed, and the probing lanes probe what
  // the translator has passed. Pass A writes the session store and the
  // caches, pass B the staged rows and pass C the dedup tables. With
  // one lane the same steps run in turn.
  std::atomic<size_t> interned{0};
  std::atomic<size_t> translated{0};
  auto publish = [](std::atomic<size_t>* done, size_t n) {
    done->store(n, std::memory_order_release);
    done->notify_all();
  };
  auto await = [](const std::atomic<size_t>& done, size_t ci) {
    for (size_t seen; (seen = done.load(std::memory_order_acquire)) <= ci;) {
      done.wait(seen, std::memory_order_acquire);
    }
  };
  pool.Run([&](size_t lane) {
    if (lane == translator) begin_loads();
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      if (lane == 0) {
        intern(ci);
        publish(&interned, ci + 1);
      }
      if (lane == translator) {
        await(interned, ci);
        translate(ci);
        publish(&translated, ci + 1);
      }
      if (lane >= translator) {
        await(translated, ci);
        probe(ci, lane - translator);
      }
    }
  });

  // Registration and the loads' ends, side by side: lane 0 registers
  // every row's terms in the active domains in input order - the order
  // the sequential loader registers them - translating them again
  // (the staged rows move as the loads end), while the probing lanes
  // end the loads, one predicate each in turn.
  std::vector<Relation::BulkLoad::Outcome> outcomes(sig.size());
  pool.Run([&](size_t lane) {
    if (lane == 0) {
      for (size_t ci = 0; ci < chunks.size(); ++ci) {
        for_rows(ci, [&](const ChunkPred&, size_t, TupleRef args) {
          for (TermId t : args) db_->RegisterTerm(t);
        });
      }
    }
    if (lane >= translator) {
      for (size_t pred = lane - translator; pred < sig.size(); pred += parts) {
        if (loads[pred].has_value()) outcomes[pred] = loads[pred]->End();
      }
    }
  });
  for (PredicateId pred = 0; pred < sig.size(); ++pred) {
    if (loads[pred].has_value()) {
      ingest.facts_inserted += db_->EndBulkLoad(outcomes[pred]);
    }
  }
  ingest.merge_ms = MsSince(merge_t0);

  // The lanes free what they built - scratch stores and rows - so the
  // caller's thread frees nothing fact by fact.
  pool.Run([&](size_t lane) {
    lane_state[lane] = LaneScratch{};
    std::vector<TermId>().swap(caches[lane]);
    for (size_t ci = lane; ci < chunks.size(); ci += lane_count) {
      results[ci] = ChunkResult{};
    }
  });

  if (ingest.facts_parsed > 0) {
    // Same epoch discipline as Compile() committing staged facts.
    ++fact_epoch_;
    converged_ = false;
  }
  eval_stats_.ingest = ingest;
  return Status::OK();
}

}  // namespace lps

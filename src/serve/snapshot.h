// A frozen, immutable copy of a Session's state, safe for any number
// of concurrent readers.
//
// Session::Freeze() deep-clones the term store (TermStore::Clone - id
// and symbol assignments are preserved exactly), re-binds a copy of
// the program (its rules) and the database (its facts and derived
// tuples) to the clone, and catches up every relation index
// (Database::FreezeIndexes); FreezeIncremental does the same but
// shares what is unchanged since the previous snapshot
// (Database::CloneInto with a `prev`) - relations holding facts
// included, since the facts live in them. After publication nothing ever
// mutates a Snapshot: the read path is the const Relation::Lookup over
// prebuilt indexes, const TermStore::TryLookup* probes of the intern
// tables, and active-domain reads - all free of lazy mutation - so
// readers need no locks at all (DESIGN.md section 15). A reader that
// shares a snapshot relation (a demand request's AliasRelation) and
// needs an index it lacks gets a copy from Database::EnsureIndex.
// Writers keep loading facts and re-evaluating on the *session* copies
// and publish fresh snapshots through serve::SnapshotRegistry while
// readers drain on the old epoch.
#ifndef LPS_SERVE_SNAPSHOT_H_
#define LPS_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/options.h"
#include "eval/database.h"
#include "lang/program.h"
#include "lang/validate.h"

namespace lps {

class Session;

namespace serve {

struct FreezeOptions {
  /// Bring the session database to fixpoint before freezing (the
  /// normal serving mode: scans over the snapshot are then complete
  /// answers). With false the snapshot captures the database as-is -
  /// Snapshot::converged() reports which.
  bool evaluate = true;

  /// Extra per-mask indexes to build eagerly at freeze time, for
  /// binding patterns the server is expected to probe that no prior
  /// execution has indexed yet. Predicates are named (name, arity);
  /// unknown predicates are skipped, not errors - the scan fallback
  /// stays correct, just slower. A mask with a bit at or past `arity`
  /// fails the freeze with kInvalidArgument before anything is cloned;
  /// mask 0 builds nothing (an unbound scan needs no index).
  struct IndexSpec {
    std::string pred;
    size_t arity = 0;
    uint32_t mask = 0;
  };
  std::vector<IndexSpec> indexes;
};

/// Sharing witnesses of one freeze: how much of the snapshot is
/// physically aliased from the previous snapshot versus deep-copied.
/// All-cloned (shared == 0, store_shared == false) after a full
/// Session::Freeze(); FreezeIncremental fills in the sharing it
/// achieved. Surfaced through ServeStats and lpsi .stats/.serve.
struct CowStats {
  size_t relations_shared = 0;  // relations aliased from the previous snapshot
  size_t relations_cloned = 0;  // relations deep-copied (touched or new)
  // Arena bytes of the shared relations. Index bytes are deliberately
  // excluded: Relation::IndexBytes walks every posting bucket, which
  // would put an O(index) pass on every republish just to report a
  // witness (the actual shared footprint is larger than this figure).
  size_t bytes_shared = 0;
  // Shared relations that hold base facts (Relation::base_rows): the
  // facts aliased from prev. The name predates facts living in the
  // relations.
  size_t fact_chunks_shared = 0;
  bool store_shared = false;    // TermStore aliased (no new terms/symbols)
};

/// Immutable after construction; create via Session::Freeze(). Shared
/// ownership: the registry, pinned readers and snapshot-backed cursors
/// all hold shared_ptr<const Snapshot>, so the memory lives exactly
/// until the last reader drops - the registry's epoch refcount decides
/// *retention* (when the registry stops handing the snapshot out), the
/// shared_ptr makes even a buggy early retirement memory-safe.
class Snapshot {
 public:
  const TermStore& store() const { return *store_; }
  const Program& program() const { return *program_; }
  const Database& database() const { return *db_; }
  const Signature& signature() const { return program_->signature(); }
  LanguageMode mode() const { return mode_; }
  /// The freezing session's options (evaluation limits, builtin
  /// semantics) - servers evaluate demand queries under these.
  const Options& options() const { return options_; }
  /// True when the database was at fixpoint at freeze time, i.e. scan
  /// answers over this snapshot are complete.
  bool converged() const { return converged_; }
  /// Number of terms in the frozen store. A ground term resolved in a
  /// descendant clone with id >= store_size() was interned after the
  /// freeze and therefore occurs in no stored tuple here.
  size_t store_size() const { return store_size_; }
  /// The freezing session's rule_epoch() at freeze time. Two snapshots
  /// of one session with equal rule epochs have identical rule sets,
  /// so rule-derived serving state (goal plans, cached magic rewrites)
  /// built against one is valid against the other - the basis of the
  /// QueryServer's cheap worker refresh across fact-only republishes.
  uint64_t rule_epoch() const { return rule_epoch_; }
  /// Id of the session that froze this snapshot (process-unique).
  /// FreezeIncremental refuses a `prev` from a different session:
  /// relation content ticks are only meaningful along one session's
  /// clone lineage.
  uint64_t session_id() const { return session_id_; }
  /// How much of this snapshot aliases the previous one (see CowStats).
  const CowStats& cow_stats() const { return cow_; }

 private:
  friend class ::lps::Session;
  Snapshot() = default;

  // The store is shared_ptr so consecutive snapshots of a quiet store
  // can alias one TermStore; program and database are per-snapshot
  // (the database's *relations* alias internally, see
  // Database::CloneInto).
  std::shared_ptr<TermStore> store_;
  std::unique_ptr<Program> program_;
  std::unique_ptr<Database> db_;
  LanguageMode mode_ = LanguageMode::kLDL;
  Options options_;
  bool converged_ = false;
  size_t store_size_ = 0;
  uint64_t rule_epoch_ = 0;
  uint64_t session_id_ = 0;
  CowStats cow_;
};

}  // namespace serve
}  // namespace lps

#endif  // LPS_SERVE_SNAPSHOT_H_

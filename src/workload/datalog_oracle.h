#ifndef STRATLEARN_WORKLOAD_DATALOG_ORACLE_H_
#define STRATLEARN_WORKLOAD_DATALOG_ORACLE_H_

#include <vector>

#include "datalog/database.h"
#include "graph/builder.h"
#include "workload/oracle.h"

namespace stratlearn {

/// A workload of concrete queries: each entry is a tuple of constants for
/// the query form's bound positions, with a sampling weight. This models
/// "the system's user" of Section 3.1 — e.g. 60% instructor(russ), 15%
/// instructor(manolis), 25% instructor(fred).
struct QueryWorkload {
  struct Entry {
    std::vector<SymbolId> args;
    double weight = 1.0;
  };
  std::vector<Entry> entries;
};

/// Materialises contexts from real <query, database> pairs: samples a
/// query from the workload, then determines each experiment's outcome by
/// actually attempting its retrieval (or evaluating its guard) against
/// the database. This is the bridge between the Datalog substrate and
/// the blocked-arc-set view of Note 2.
class DatalogOracle : public ContextOracle {
 public:
  /// `built` and `db` must outlive the oracle. The oracle reads the live
  /// database: facts inserted (or a `Clear`) after construction show in
  /// later contexts.
  DatalogOracle(const BuiltGraph* built, const Database* db,
                QueryWorkload workload);

  Context Next(Rng& rng) override;
  size_t num_experiments() const override;

  /// Deterministically maps one concrete query to its context. Walks the
  /// compiled probe table; when the database's epoch has moved since the
  /// last call it first re-resolves the cached relation handles, so
  /// calls on one oracle must not overlap.
  Context ContextFor(const std::vector<SymbolId>& query_args) const;

  /// The last sampled query's arguments (for tracing/examples); empty
  /// before the first Next.
  const std::vector<SymbolId>& last_query_args() const;

  /// Exact per-experiment marginal success probabilities under the
  /// workload distribution (the "true" p vector PAO is estimating).
  std::vector<double> TrueMarginalProbs() const;

 private:
  /// One experiment's outcome test: a retrieval with its predicate's
  /// relation resolved, or (retrieval == nullptr) a guard.
  struct Probe {
    const RetrievalSpec* retrieval = nullptr;
    const GuardSpec* guard = nullptr;
    Database::RelationRef relation = nullptr;
  };

  /// Resolves every retrieval probe's relation in the database as it
  /// is now.
  void ResolveRelations() const;

  static constexpr size_t kNoQuery = static_cast<size_t>(-1);

  const Database* db_;
  QueryWorkload workload_;
  std::vector<double> weights_;
  size_t last_query_ = kNoQuery;  // index into workload_.entries
  mutable std::vector<Probe> probes_;  // one per experiment
  mutable uint64_t probes_epoch_ = 0;
};

}  // namespace stratlearn

#endif  // STRATLEARN_WORKLOAD_DATALOG_ORACLE_H_

#ifndef STRATLEARN_GRAPH_BUILDER_H_
#define STRATLEARN_GRAPH_BUILDER_H_

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datalog/database.h"
#include "datalog/rule_base.h"
#include "graph/inference_graph.h"
#include "util/status.h"

namespace stratlearn {

/// A query form q^alpha (Section 2): a predicate plus an adornment that
/// marks each argument position bound ('b') or free ('f').
struct QueryForm {
  SymbolId predicate = kInvalidSymbol;
  std::vector<bool> bound;  // bound[i] == true  <=>  adornment 'b'

  /// Parses "instructor(b)" / "path(b, f)" style forms.
  static Result<QueryForm> Parse(std::string_view text, SymbolTable* symbols);
};

/// How a retrieval arc's database lookup is produced from a concrete
/// query's constant arguments.
struct RetrievalSpec {
  /// One per argument of the retrieved atom.
  struct ArgSpec {
    /// >= 0: take the query's argument at this index.
    /// kConstant (-1): use `constant` below.
    /// kExistential (-2): match anything (existential retrieval).
    int source = kConstant;
    SymbolId constant = kInvalidSymbol;

    static constexpr int kConstant = -1;
    static constexpr int kExistential = -2;
  };

  SymbolId predicate = kInvalidSymbol;
  std::vector<ArgSpec> args;

  /// True iff some argument is existential, i.e. the retrieval succeeds
  /// when *any* matching fact exists.
  bool IsExistential() const;

  /// Evaluates the retrieval against `db` for a query with the given
  /// constant arguments: true iff the lookup succeeds (arc unblocked).
  bool Succeeds(const Database& db, const std::vector<SymbolId>& query_args)
      const;

  /// The same lookup against `relation`, which must be
  /// `db.Find(predicate)` as of now; for callers that resolve the
  /// predicate once and probe it many times. Builds the key on the stack
  /// (kInvalidSymbol at existential positions, which are always
  /// distinct variables) and allocates nothing.
  bool Succeeds(const Database& db, Database::RelationRef relation,
                std::span<const SymbolId> query_args) const;
};

/// A guard on a reduction arc: the arc is traversable only when the
/// query's constants satisfy every equality (Section 4.1's
/// "grad(fred) :- admitted(fred, X)" example: the reduction is blocked
/// unless query argument 0 equals 'fred').
struct GuardSpec {
  std::vector<std::pair<int, SymbolId>> equalities;

  bool Satisfied(const std::vector<SymbolId>& query_args) const;
};

/// The result of unfolding a rule base for a query form.
struct BuiltGraph {
  InferenceGraph graph;
  QueryForm form;
  /// Retrieval spec for every retrieval arc.
  std::unordered_map<ArcId, RetrievalSpec> retrievals;
  /// Guard for every guarded (experiment) reduction arc.
  std::unordered_map<ArcId, GuardSpec> guards;
};

/// Costs and limits for graph construction.
struct BuildOptions {
  double reduction_cost = 1.0;
  double retrieval_cost = 1.0;
  /// Maximum rule-unfolding depth.
  int max_depth = 32;
  /// Abort if the graph would exceed this many arcs.
  size_t max_arcs = 100000;
};

/// Unfolds `rules` for queries of shape `form` into a tree-shaped
/// inference graph (the AOT class the paper's algorithms operate on).
///
/// Supported rule shapes, mirroring the paper's Note 4 restriction to
/// simple (non-hyper) graphs:
///  * chains of extensional body atoms (compiled to a run of retrieval
///    experiments in series, ending in a success box);
///  * an optional single *intensional* body atom in the last position,
///    which is unfolded recursively;
///  * head constants acting as guards on the reduction arc.
///
/// Returns InvalidArgument for recursive predicates, and Unimplemented
/// for rule shapes that need hypergraph strategies (an intensional atom
/// before the end of the body, or an existential variable shared between
/// body atoms — a join).
Result<BuiltGraph> BuildInferenceGraph(const RuleBase& rules,
                                       const QueryForm& form,
                                       SymbolTable* symbols,
                                       const BuildOptions& options = {});

}  // namespace stratlearn

#endif  // STRATLEARN_GRAPH_BUILDER_H_

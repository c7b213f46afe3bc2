// Differential oracle for the Datalog lookup path: the database's
// original membership test (each tuple encoded into a byte string and
// kept in an unordered_set), its original binding-map Match, and the
// original Match-based RetrievalSpec::Succeeds and map-lookup
// DatalogOracle::ContextFor, copied unchanged apart from living in a
// test-only class. The library's flat relations, Exists and compiled
// probe table must agree with these on every lookup.
#ifndef STRATLEARN_TESTS_LOOKUP_ORACLE_H_
#define STRATLEARN_TESTS_LOOKUP_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datalog/atom.h"
#include "datalog/database.h"
#include "engine/context.h"
#include "graph/builder.h"
#include "util/check.h"
#include "util/status.h"
#include "util/string_util.h"

namespace stratlearn::oracle {

/// The original fact store: tuple vectors plus encoded-string membership.
class ReferenceDatabase {
 public:
  Status Insert(SymbolId predicate, FactTuple args) {
    Relation& rel = relations_[predicate];
    if (rel.arity < 0) {
      rel.arity = static_cast<int>(args.size());
    } else if (rel.arity != static_cast<int>(args.size())) {
      return Status::FailedPrecondition(
          StrFormat("arity mismatch for predicate %u: have %d, got %zu",
                    predicate, rel.arity, args.size()));
    }
    std::string key = EncodeTuple(args);
    if (rel.members.insert(key).second) {
      if (!args.empty()) {
        rel.first_arg_index[args[0]].push_back(
            static_cast<uint32_t>(rel.tuples.size()));
      }
      rel.tuples.push_back(std::move(args));
    }
    return Status::OK();
  }

  bool Contains(SymbolId predicate, const FactTuple& args) const {
    auto it = relations_.find(predicate);
    if (it == relations_.end()) return false;
    if (it->second.arity != static_cast<int>(args.size())) return false;
    return it->second.members.count(EncodeTuple(args)) > 0;
  }

  void Match(const Atom& pattern, std::vector<FactTuple>* out) const {
    auto it = relations_.find(pattern.predicate);
    if (it == relations_.end()) return;
    const Relation& rel = it->second;
    if (rel.arity != static_cast<int>(pattern.args.size())) return;

    // Matches `tuple` against the pattern, honouring repeated variables.
    auto matches = [&pattern](const FactTuple& tuple) {
      std::unordered_map<SymbolId, SymbolId> bindings;
      for (size_t i = 0; i < pattern.args.size(); ++i) {
        const Term& t = pattern.args[i];
        if (t.is_constant()) {
          if (tuple[i] != t.symbol) return false;
        } else {
          auto [bit, inserted] = bindings.emplace(t.symbol, tuple[i]);
          if (!inserted && bit->second != tuple[i]) return false;
        }
      }
      return true;
    };

    // Use the first-argument index when the first position is bound.
    if (!pattern.args.empty() && pattern.args[0].is_constant()) {
      auto idx = rel.first_arg_index.find(pattern.args[0].symbol);
      if (idx == rel.first_arg_index.end()) return;
      for (uint32_t ti : idx->second) {
        if (matches(rel.tuples[ti])) out->push_back(rel.tuples[ti]);
      }
      return;
    }
    for (const FactTuple& tuple : rel.tuples) {
      if (matches(tuple)) out->push_back(tuple);
    }
  }

  int64_t CountFacts(SymbolId predicate) const {
    auto it = relations_.find(predicate);
    if (it == relations_.end()) return 0;
    return static_cast<int64_t>(it->second.tuples.size());
  }

 private:
  struct Relation {
    int arity = -1;
    std::vector<FactTuple> tuples;
    // Encoded-tuple membership set for O(1) Contains.
    std::unordered_set<std::string> members;
    std::unordered_map<SymbolId, std::vector<uint32_t>> first_arg_index;
  };

  static std::string EncodeTuple(const FactTuple& t) {
    std::string key;
    key.reserve(t.size() * sizeof(SymbolId));
    for (SymbolId s : t) {
      key.append(reinterpret_cast<const char*>(&s), sizeof(SymbolId));
    }
    return key;
  }

  std::unordered_map<SymbolId, Relation> relations_;
};

/// The original RetrievalSpec::Succeeds: a FactTuple for a ground
/// retrieval, a pattern Atom and a full Match for an existential one.
inline bool ReferenceSucceeds(const RetrievalSpec& spec,
                              const ReferenceDatabase& db,
                              const std::vector<SymbolId>& query_args) {
  const auto& args = spec.args;
  using ArgSpec = RetrievalSpec::ArgSpec;
  if (!spec.IsExistential()) {
    FactTuple tuple;
    tuple.reserve(args.size());
    for (const ArgSpec& a : args) {
      if (a.source >= 0) {
        STRATLEARN_CHECK(static_cast<size_t>(a.source) < query_args.size());
        tuple.push_back(query_args[a.source]);
      } else {
        tuple.push_back(a.constant);
      }
    }
    return db.Contains(spec.predicate, tuple);
  }
  // Existential retrieval: build a pattern atom and probe for any match.
  Atom pattern;
  pattern.predicate = spec.predicate;
  pattern.args.reserve(args.size());
  // Existential positions need distinct variable symbols; any ids distinct
  // from each other work for Database::Match, so reuse the position index.
  for (size_t i = 0; i < args.size(); ++i) {
    const ArgSpec& a = args[i];
    if (a.source >= 0) {
      pattern.args.push_back(Term::Constant(query_args[a.source]));
    } else if (a.source == ArgSpec::kConstant) {
      pattern.args.push_back(Term::Constant(a.constant));
    } else {
      pattern.args.push_back(Term::Variable(static_cast<SymbolId>(i)));
    }
  }
  std::vector<FactTuple> matches;
  db.Match(pattern, &matches);
  return !matches.empty();
}

/// The original DatalogOracle::ContextFor: two map lookups per
/// experiment, then the retrieval or the guard.
inline Context ReferenceContextFor(const BuiltGraph& built,
                                   const ReferenceDatabase& db,
                                   const std::vector<SymbolId>& query_args) {
  Context c(built.graph.num_experiments());
  for (size_t e = 0; e < built.graph.num_experiments(); ++e) {
    ArcId arc = built.graph.experiments()[e];
    auto retrieval = built.retrievals.find(arc);
    if (retrieval != built.retrievals.end()) {
      c.Set(e, ReferenceSucceeds(retrieval->second, db, query_args));
      continue;
    }
    auto guard = built.guards.find(arc);
    STRATLEARN_CHECK_MSG(guard != built.guards.end(),
                         "experiment arc has neither retrieval nor guard");
    c.Set(e, guard->second.Satisfied(query_args));
  }
  return c;
}

}  // namespace stratlearn::oracle

#endif  // STRATLEARN_TESTS_LOOKUP_ORACLE_H_

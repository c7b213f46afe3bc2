// Differential fuzz tests of the Datalog lookup path against the
// original string-set membership and Match-based retrievals kept in
// lookup_oracle.h: on hundreds of seeded random databases every
// Contains, Exists, Match and RetrievalSpec::Succeeds must agree with
// the reference, and DatalogOracle::ContextFor must agree with the
// original map-lookup version on a program shaped like the kb_serve
// knowledge base, for every query.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datalog/database.h"
#include "datalog/parser.h"
#include "graph/builder.h"
#include "lookup_oracle.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/datalog_oracle.h"

namespace stratlearn {
namespace {

constexpr SymbolId kPredicateBase = 1u << 20;
constexpr SymbolId kUnknownSymbol = 1u << 19;  // never stored

struct FuzzCoverage {
  int64_t databases = 0;
  int64_t arities_seen[5] = {0, 0, 0, 0, 0};
  int64_t duplicates = 0;
  int64_t big_relations = 0;  // grew past 512 tuples (6+ rehashes)
  int64_t contains_hits = 0;
  int64_t exists_hits = 0;
  int64_t wildcard_first = 0;
  int64_t wildcard_later = 0;
  int64_t succeeds_hits = 0;
  int64_t succeeds_checks = 0;
  int64_t repeated_variable_matches = 0;
};

/// One random database, held both in the library and in the reference.
struct FuzzDb {
  Database db;
  oracle::ReferenceDatabase ref;
  std::vector<SymbolId> predicates;
  std::vector<int> arity;
  std::vector<std::vector<FactTuple>> inserted;  // per predicate
  uint32_t domain = 0;
};

SymbolId RandomConstant(Rng& rng, uint32_t domain) {
  return rng.NextBernoulli(0.05)
             ? kUnknownSymbol
             : static_cast<SymbolId>(rng.NextBounded(domain));
}

/// A key of `size` symbols: usually a stored tuple of `p` (when there is
/// one of that size), otherwise random constants.
FactTuple RandomKey(Rng& rng, const FuzzDb& f, size_t p, size_t size) {
  const std::vector<FactTuple>& stored = f.inserted[p];
  if (!stored.empty() && stored[0].size() == size && rng.NextBernoulli(0.6)) {
    return stored[rng.NextBounded(stored.size())];
  }
  FactTuple key(size);
  for (SymbolId& s : key) s = RandomConstant(rng, f.domain);
  return key;
}

void BuildFuzzDb(uint64_t seed, FuzzDb* f, FuzzCoverage* coverage) {
  Rng rng(seed);
  const size_t num_predicates = 1 + rng.NextBounded(4);
  // Small domains force duplicates; every fourth database instead grows
  // its relations through many rehashes.
  const bool growth = seed % 4 == 0;
  f->domain = static_cast<uint32_t>(growth ? 50 + rng.NextBounded(200)
                                           : 2 + rng.NextBounded(12));
  for (size_t p = 0; p < num_predicates; ++p) {
    f->predicates.push_back(kPredicateBase + static_cast<SymbolId>(p));
    f->arity.push_back(static_cast<int>(rng.NextBounded(5)));
    ++coverage->arities_seen[f->arity.back()];
  }
  f->inserted.resize(num_predicates);
  const size_t inserts = growth ? 1500 + rng.NextBounded(2500)
                                : rng.NextBounded(300);
  for (size_t n = 0; n < inserts; ++n) {
    const size_t p = rng.NextBounded(num_predicates);
    const SymbolId pred = f->predicates[p];
    size_t size = static_cast<size_t>(f->arity[p]);
    if (rng.NextBernoulli(0.02)) size = (size + 1 + rng.NextBounded(2)) % 5;
    FactTuple tuple = RandomKey(rng, *f, p, size);
    const int64_t before = f->db.CountFacts(pred);
    Status got = f->db.Insert(pred, tuple);
    Status want = f->ref.Insert(pred, tuple);
    ASSERT_EQ(got.code(), want.code()) << "seed " << seed << " insert " << n;
    if (got.ok()) {
      if (f->db.CountFacts(pred) == before) ++coverage->duplicates;
      f->inserted[p].push_back(std::move(tuple));
    }
    ASSERT_EQ(f->db.CountFacts(pred), f->ref.CountFacts(pred))
        << "seed " << seed << " insert " << n;
  }
  for (SymbolId pred : f->predicates) {
    if (f->db.CountFacts(pred) > 512) ++coverage->big_relations;
  }
  ++coverage->databases;
}

/// Every probe kind against the reference, `queries` times.
void ProbeFuzzDb(uint64_t seed, const FuzzDb& f, int queries,
                 FuzzCoverage* coverage) {
  Rng rng(seed ^ 0x5eed);
  const size_t num_predicates = f.predicates.size();
  for (int q = 0; q < queries; ++q) {
    // A known predicate, or (sometimes) one with no facts.
    const size_t p = rng.NextBounded(num_predicates);
    const bool unknown = rng.NextBernoulli(0.05);
    const SymbolId pred = unknown ? kPredicateBase + 100 : f.predicates[p];
    size_t size = static_cast<size_t>(f.arity[p]);
    if (rng.NextBernoulli(0.05)) size = (size + 1) % 5;  // arity mismatch
    const std::string where = StrFormat("seed %llu query %d",
                                        static_cast<unsigned long long>(seed),
                                        q);

    // Contains, by predicate and by handle.
    FactTuple key = RandomKey(rng, f, p, size);
    const bool contains = f.ref.Contains(pred, key);
    ASSERT_EQ(f.db.Contains(pred, key), contains) << where;
    ASSERT_EQ(f.db.Contains(f.db.Find(pred), key), contains) << where;
    coverage->contains_hits += contains;

    // Exists: the same key with some positions made wildcards, against
    // a Match whose wildcard positions are distinct variables.
    FactTuple pattern = RandomKey(rng, f, p, size);
    Atom atom;
    atom.predicate = pred;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (rng.NextBernoulli(0.4)) {
        pattern[i] = kInvalidSymbol;
        atom.args.push_back(Term::Variable(static_cast<SymbolId>(i)));
        if (i == 0) {
          ++coverage->wildcard_first;
        } else {
          ++coverage->wildcard_later;
        }
      } else {
        atom.args.push_back(Term::Constant(pattern[i]));
      }
    }
    std::vector<FactTuple> ref_matches;
    f.ref.Match(atom, &ref_matches);
    const bool exists = !ref_matches.empty();
    ASSERT_EQ(f.db.Exists(pred, pattern), exists) << where;
    ASSERT_EQ(f.db.Exists(f.db.Find(pred), pattern), exists) << where;
    coverage->exists_hits += exists;

    // Match: same tuples in the same order, with repeated variables.
    Atom repeated = atom;
    for (Term& t : repeated.args) {
      if (t.is_variable()) {
        t = Term::Variable(static_cast<SymbolId>(rng.NextBounded(2)));
      }
    }
    for (const Atom* a : {&atom, &repeated}) {
      std::vector<FactTuple> got, want;
      f.db.Match(*a, &got);
      f.ref.Match(*a, &want);
      ASSERT_EQ(got, want) << where;
      if (a == &repeated && !want.empty()) {
        ++coverage->repeated_variable_matches;
      }
    }

    // RetrievalSpec::Succeeds for a random spec over a 3-argument query.
    RetrievalSpec spec;
    spec.predicate = pred;
    std::vector<SymbolId> query_args = RandomKey(rng, f, p, 3);
    FactTuple target = RandomKey(rng, f, p, size);
    for (size_t i = 0; i < size; ++i) {
      RetrievalSpec::ArgSpec arg;
      const uint64_t kind = rng.NextBounded(3);
      if (kind == 0) {
        arg.source = static_cast<int>(rng.NextBounded(3));
        if (rng.NextBernoulli(0.7)) query_args[arg.source] = target[i];
      } else if (kind == 1) {
        arg.source = RetrievalSpec::ArgSpec::kConstant;
        arg.constant = target[i];
      } else {
        arg.source = RetrievalSpec::ArgSpec::kExistential;
      }
      spec.args.push_back(arg);
    }
    const bool succeeds = oracle::ReferenceSucceeds(spec, f.ref, query_args);
    ASSERT_EQ(spec.Succeeds(f.db, query_args), succeeds) << where;
    ASSERT_EQ(spec.Succeeds(f.db, f.db.Find(pred), query_args), succeeds)
        << where;
    coverage->succeeds_hits += succeeds;
    ++coverage->succeeds_checks;
  }
}

TEST(LookupKernelFuzzTest, AgreesWithReferenceOnRandomDatabases) {
  FuzzCoverage coverage;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    FuzzDb f;
    BuildFuzzDb(seed, &f, &coverage);
    if (HasFatalFailure()) return;
    ProbeFuzzDb(seed, f, 150, &coverage);
    if (HasFatalFailure()) return;
  }
  // The fuzz must actually reach every case it claims to cover.
  EXPECT_EQ(coverage.databases, 240);
  for (int a = 0; a < 5; ++a) EXPECT_GT(coverage.arities_seen[a], 20) << a;
  EXPECT_GT(coverage.duplicates, 10000);
  EXPECT_GT(coverage.big_relations, 10);
  EXPECT_GT(coverage.contains_hits, 10000);
  EXPECT_GT(coverage.exists_hits, 10000);
  EXPECT_GT(coverage.wildcard_first, 5000);
  EXPECT_GT(coverage.wildcard_later, 5000);
  EXPECT_GT(coverage.succeeds_hits, 10000);
  EXPECT_GT(coverage.succeeds_checks - coverage.succeeds_hits, 5000);
  EXPECT_GT(coverage.repeated_variable_matches, 10000);
}

TEST(LookupKernelFuzzTest, ZeroArityAndEmptyPatterns) {
  Database db;
  oracle::ReferenceDatabase ref;
  const SymbolId flag = kPredicateBase;
  EXPECT_FALSE(db.Contains(flag, FactTuple{}));
  EXPECT_FALSE(db.Exists(flag, std::span<const SymbolId>()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Insert(flag, FactTuple{}).ok());
    ASSERT_TRUE(ref.Insert(flag, FactTuple{}).ok());
  }
  EXPECT_EQ(db.CountFacts(flag), 1);
  EXPECT_TRUE(db.Contains(flag, FactTuple{}));
  EXPECT_TRUE(db.Exists(flag, std::span<const SymbolId>()));
  EXPECT_FALSE(db.Contains(flag, FactTuple{0}));
  Atom atom(flag, {});
  std::vector<FactTuple> got, want;
  db.Match(atom, &got);
  ref.Match(atom, &want);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), 1u);
}

/// A three-level rule base shaped like the kb_serve knowledge base
/// (q -> r_i -> s_ij -> base predicates, a guarded rule, existential
/// retrievals bound in their first position), plus existential
/// retrievals whose first position is free and a body constant.
std::string KbRules(int groups, int per_group) {
  std::string text;
  for (int i = 0; i < groups; ++i) {
    text += StrFormat("q(X) :- r%d(X).\n", i);
    for (int j = 0; j < per_group; ++j) {
      text += StrFormat(
          "r%d(X) :- s%d_%d(X).\ns%d_%d(X) :- p%d_%d(X).\n"
          "s%d_%d(X) :- a%d_%d(X), b%d_%d(X, Y).\n",
          i, i, j, i, j, i, j, i, j, i, j, i, j);
    }
  }
  text += "q(c0) :- vip(c0).\n";
  text += "q(X) :- t(Y, X, Z).\n";
  text += "q(X) :- u(X, k1).\n";
  return text;
}

TEST(LookupKernelFuzzTest, ContextForAgreesOnKbShapedProgram) {
  constexpr int kGroups = 3, kPerGroup = 2, kConstants = 300;
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  ASSERT_TRUE(parser.LoadProgram(KbRules(kGroups, kPerGroup), &db, &rules)
                  .ok());
  oracle::ReferenceDatabase ref;
  std::vector<SymbolId> constants;
  for (int c = 0; c < kConstants; ++c) {
    constants.push_back(symbols.Intern(StrFormat("c%d", c)));
  }
  auto insert = [&](const std::string& pred, FactTuple tuple) {
    SymbolId p = symbols.Intern(pred);
    ASSERT_TRUE(db.Insert(p, tuple).ok());
    ASSERT_TRUE(ref.Insert(p, std::move(tuple)).ok());
  };
  Rng rng(20261018);
  insert("vip", {constants[0]});
  for (int i = 0; i < kGroups; ++i) {
    for (int j = 0; j < kPerGroup; ++j) {
      for (SymbolId c : constants) {
        if (rng.NextBernoulli(0.1)) insert(StrFormat("p%d_%d", i, j), {c});
        if (rng.NextBernoulli(0.3)) insert(StrFormat("a%d_%d", i, j), {c});
        if (rng.NextBernoulli(0.2)) {
          SymbolId d = symbols.Intern(StrFormat("d%d", static_cast<int>(
                                                           rng.NextBounded(50))));
          insert(StrFormat("b%d_%d", i, j), {c, d});
        }
      }
    }
  }
  for (SymbolId c : constants) {
    if (rng.NextBernoulli(0.1)) {
      insert("t", {constants[rng.NextBounded(kConstants)], c,
                   constants[rng.NextBounded(kConstants)]});
    }
    if (rng.NextBernoulli(0.1)) {
      insert("u", {c, symbols.Intern(rng.NextBernoulli(0.5) ? "k1" : "k2")});
    }
  }

  Result<QueryForm> form = QueryForm::Parse("q(b)", &symbols);
  ASSERT_TRUE(form.ok());
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->guards.size(), 1u);

  QueryWorkload workload;
  for (SymbolId c : constants) workload.entries.push_back({{c}, 1.0});
  DatalogOracle oracle(&built.value(), &db, workload);
  std::vector<SymbolId> queries = constants;
  queries.push_back(symbols.Intern("stranger"));
  queries.push_back(symbols.Intern("k1"));
  int64_t unblocked = 0, blocked = 0;
  for (SymbolId c : queries) {
    Context got = oracle.ContextFor({c});
    Context want = oracle::ReferenceContextFor(*built, ref, {c});
    ASSERT_EQ(got, want) << symbols.Name(c);
    for (size_t e = 0; e < got.num_experiments(); ++e) {
      (got.Unblocked(e) ? unblocked : blocked) += 1;
    }
  }
  EXPECT_GT(unblocked, 300);
  EXPECT_GT(blocked, 300);
}

}  // namespace
}  // namespace stratlearn

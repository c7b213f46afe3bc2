#include <gtest/gtest.h>

#include "core/expected_cost.h"
#include "datalog/parser.h"
#include "util/string_util.h"
#include "workload/datalog_oracle.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

TEST(IndependentOracleTest, MatchesMarginals) {
  IndependentOracle oracle({0.6, 0.15, 1.0, 0.0});
  Rng rng(1);
  int counts[4] = {0, 0, 0, 0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    Context c = oracle.Next(rng);
    for (size_t e = 0; e < 4; ++e) {
      if (c.Unblocked(e)) ++counts[e];
    }
  }
  EXPECT_NEAR(counts[0] / double(n), 0.6, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.15, 0.01);
  EXPECT_EQ(counts[2], n);
  EXPECT_EQ(counts[3], 0);
}

TEST(MixtureOracleTest, MarginalsMatchFormula) {
  MixtureOracle oracle({{1.0, {1.0, 0.0}}, {3.0, {0.0, 1.0}}});
  std::vector<double> marginals = oracle.MarginalProbs();
  EXPECT_NEAR(marginals[0], 0.25, 1e-12);
  EXPECT_NEAR(marginals[1], 0.75, 1e-12);
  Rng rng(2);
  int both = 0, neither = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Context c = oracle.Next(rng);
    if (c.Unblocked(0) && c.Unblocked(1)) ++both;
    if (!c.Unblocked(0) && !c.Unblocked(1)) ++neither;
  }
  // Profiles are deterministic and exclusive: never both, never neither —
  // maximal dependence despite nontrivial marginals.
  EXPECT_EQ(both, 0);
  EXPECT_EQ(neither, 0);
}

TEST(DatalogOracleTest, SectionTwoWorkload) {
  // 60% instructor(russ), 15% instructor(manolis), 25% instructor(fred)
  // against DB_1 = {prof(russ), grad(manolis)}.
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  ASSERT_TRUE(parser
                  .LoadProgram(
                      "instructor(X) :- prof(X)."
                      "instructor(X) :- grad(X)."
                      "prof(russ). grad(manolis).",
                      &db, &rules)
                  .ok());
  Result<QueryForm> form = QueryForm::Parse("instructor(b)", &symbols);
  ASSERT_TRUE(form.ok());
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  QueryWorkload workload;
  workload.entries.push_back({{symbols.Intern("russ")}, 0.60});
  workload.entries.push_back({{symbols.Intern("manolis")}, 0.15});
  workload.entries.push_back({{symbols.Intern("fred")}, 0.25});
  DatalogOracle oracle(&built.value(), &db, workload);

  // True marginals: D_p succeeds exactly for russ (0.6), D_g exactly for
  // manolis (0.15).
  std::vector<double> p = oracle.TrueMarginalProbs();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0], 0.60, 1e-12);
  EXPECT_NEAR(p[1], 0.15, 1e-12);

  // Deterministic per-query contexts.
  Context russ = oracle.ContextFor({symbols.Intern("russ")});
  EXPECT_TRUE(russ.Unblocked(0));
  EXPECT_FALSE(russ.Unblocked(1));
  Context fred = oracle.ContextFor({symbols.Intern("fred")});
  EXPECT_FALSE(fred.Unblocked(0));
  EXPECT_FALSE(fred.Unblocked(1));

  // Sampling respects the weights.
  Rng rng(7);
  int prof_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (oracle.Next(rng).Unblocked(0)) ++prof_hits;
  }
  EXPECT_NEAR(prof_hits / double(n), 0.6, 0.02);
}

TEST(DatalogOracleTest, GuardedExperimentEvaluation) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  ASSERT_TRUE(parser
                  .LoadProgram(
                      "grad(X) :- enrolled(X)."
                      "grad(fred) :- admitted(fred, Y)."
                      "admitted(fred, csc).",
                      &db, &rules)
                  .ok());
  Result<QueryForm> form = QueryForm::Parse("grad(b)", &symbols);
  ASSERT_TRUE(form.ok());
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->guards.size(), 1u);

  QueryWorkload workload;
  workload.entries.push_back({{symbols.Intern("fred")}, 1.0});
  DatalogOracle oracle(&built.value(), &db, workload);
  Context fred = oracle.ContextFor({symbols.Intern("fred")});
  Context russ = oracle.ContextFor({symbols.Intern("russ")});
  // Find the guard's experiment index.
  ArcId guard_arc = built->guards.begin()->first;
  int guard_exp = built->graph.ExperimentIndex(guard_arc);
  ASSERT_GE(guard_exp, 0);
  EXPECT_TRUE(fred.Unblocked(guard_exp));
  EXPECT_FALSE(russ.Unblocked(guard_exp));
}

TEST(DatalogOracleTest, CachedRelationsFollowTheLiveDatabase) {
  // An oracle built before the database changes must answer exactly as
  // one built after it: its cached relation handles are re-resolved when
  // a predicate gains its first fact and after Clear().
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  const std::string facts = "p(c0). a(c1). b(c1, d0). b(c2, d1).";
  ASSERT_TRUE(parser
                  .LoadProgram("q(X) :- p(X). q(X) :- a(X), b(X, Y)."
                               "q(X) :- late(X). q(X) :- big(X, Y)." +
                                   facts,
                               &db, &rules)
                  .ok());
  ASSERT_TRUE(db.Insert(symbols.Intern("big"),
                        {symbols.Intern("c3"), symbols.Intern("d0")})
                  .ok());
  Result<QueryForm> form = QueryForm::Parse("q(b)", &symbols);
  ASSERT_TRUE(form.ok());
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  QueryWorkload workload;
  std::vector<SymbolId> constants;
  for (int c = 0; c < 40; ++c) {
    constants.push_back(symbols.Intern(StrFormat("c%d", c)));
    workload.entries.push_back({{constants.back()}, 1.0 + c % 3});
  }
  DatalogOracle oracle(&built.value(), &db, workload);
  // Warm the cache before every change.
  (void)oracle.TrueMarginalProbs();

  auto expect_fresh = [&](const std::string& step) {
    DatalogOracle fresh(&built.value(), &db, workload);
    for (SymbolId c : constants) {
      EXPECT_EQ(oracle.ContextFor({c}), fresh.ContextFor({c}))
          << step << ": " << symbols.Name(c);
    }
    EXPECT_EQ(oracle.TrueMarginalProbs(), fresh.TrueMarginalProbs())
        << step;
  };

  // 1. A predicate that had no facts gains one.
  ASSERT_EQ(db.Find(symbols.Intern("late")), nullptr);
  ASSERT_TRUE(db.Insert(symbols.Intern("late"), {constants[5]}).ok());
  expect_fresh("new predicate");
  EXPECT_TRUE(oracle.ContextFor({constants[5]}).Unblocked(3));

  // 2. An existing relation grows through several rehashes.
  for (int c = 6; c < 40; c += 2) {
    for (int d = 0; d < 20; ++d) {
      ASSERT_TRUE(db.Insert(symbols.Intern("big"),
                            {constants[c],
                             symbols.Intern(StrFormat("d%d", d))})
                      .ok());
    }
  }
  ASSERT_GT(db.CountFacts(symbols.Intern("big")), 300);
  expect_fresh("rehash");

  // 3. Clear() and a reload with different facts.
  db.Clear();
  expect_fresh("cleared");
  ASSERT_TRUE(parser.LoadProgram("p(c1). a(c0). b(c0, d2). late(c7).",
                                 &db, &rules)
                  .ok());
  expect_fresh("reloaded");
  EXPECT_TRUE(oracle.ContextFor({constants[7]}).Unblocked(3));
}

TEST(DriftingOracleTest, RevertAtRestoresThePreDriftRegime) {
  DriftingOracle oracle({0.9, 0.2}, {0.1, 0.2}, /*drift_at=*/10);
  oracle.set_revert_at(25);
  EXPECT_EQ(oracle.revert_at(), 25);
  // Before / during / after the transient.
  EXPECT_EQ(oracle.ProbsAt(9), (std::vector<double>{0.9, 0.2}));
  EXPECT_EQ(oracle.ProbsAt(10), (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(oracle.ProbsAt(24), (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(oracle.ProbsAt(25), (std::vector<double>{0.9, 0.2}));
  EXPECT_EQ(oracle.ProbsAt(1000), (std::vector<double>{0.9, 0.2}));
}

TEST(DriftingOracleTest, RevertIsStepwiseEvenWithAForwardRamp) {
  DriftingOracle oracle({1.0, 0.0}, {0.0, 0.0}, /*drift_at=*/10,
                        /*ramp_len=*/10);
  oracle.set_revert_at(20);  // earliest legal revert: drift_at + ramp_len
  EXPECT_NEAR(oracle.ProbsAt(14)[0], 0.5, 1e-12);  // mid-ramp
  EXPECT_EQ(oracle.ProbsAt(19)[0], 0.0);
  // The revert is a step back to `before`, never a reverse ramp.
  EXPECT_EQ(oracle.ProbsAt(20)[0], 1.0);
}

TEST(DriftingOracleTest, RevertZeroDisarms) {
  DriftingOracle oracle({0.9}, {0.1}, /*drift_at=*/5);
  oracle.set_revert_at(8);
  oracle.set_revert_at(0);
  EXPECT_EQ(oracle.ProbsAt(100), (std::vector<double>{0.1}));
}

TEST(DriftingOracleTest, DrawsFollowTheRevertedDistribution) {
  DriftingOracle oracle({1.0}, {0.0}, /*drift_at=*/5);
  oracle.set_revert_at(10);
  Rng rng(3);
  int unblocked = 0;
  for (int i = 0; i < 15; ++i) {
    if (oracle.Next(rng).Unblocked(0)) ++unblocked;
  }
  EXPECT_EQ(oracle.draws(), 15);
  // Draws 0-4 and 10-14 are certain successes, 5-9 certain failures.
  EXPECT_EQ(unblocked, 10);
}

TEST(RandomTreeTest, ProducesValidGraphs) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    RandomTree tree = MakeRandomTree(rng);
    EXPECT_TRUE(tree.graph.Validate().ok());
    EXPECT_GE(tree.graph.SuccessArcs().size(), 2u);
    EXPECT_EQ(tree.probs.size(), tree.graph.num_experiments());
    for (double p : tree.probs) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    // Default options: no internal experiments.
    EXPECT_TRUE(IsLeafOnlyExperiments(tree.graph));
  }
}

TEST(RandomTreeTest, InternalExperimentsWhenRequested) {
  Rng rng(13);
  RandomTreeOptions options;
  options.internal_experiment_prob = 1.0;
  options.depth = 3;
  options.early_leaf_prob = 0.0;
  bool saw_internal = false;
  for (int i = 0; i < 20 && !saw_internal; ++i) {
    RandomTree tree = MakeRandomTree(rng, options);
    saw_internal = !IsLeafOnlyExperiments(tree.graph);
  }
  EXPECT_TRUE(saw_internal);
}

TEST(RandomTreeTest, FlatTreeShape) {
  Rng rng(17);
  RandomTree tree = MakeFlatTree(rng, 12);
  EXPECT_EQ(tree.graph.num_arcs(), 12u);
  EXPECT_EQ(tree.graph.SuccessArcs().size(), 12u);
  EXPECT_EQ(tree.probs.size(), 12u);
}

TEST(RandomTreeTest, DeterministicForSeed) {
  Rng rng1(23), rng2(23);
  RandomTree a = MakeRandomTree(rng1);
  RandomTree b = MakeRandomTree(rng2);
  EXPECT_EQ(a.graph.num_arcs(), b.graph.num_arcs());
  EXPECT_EQ(a.probs, b.probs);
}

}  // namespace
}  // namespace stratlearn

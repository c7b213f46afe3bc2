// Micro-benchmarks for the Datalog substrate: parsing, fact lookup,
// matching, turning a query into a context, and SLD proof search.

#include <benchmark/benchmark.h>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "graph/builder.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/datalog_oracle.h"

namespace stratlearn {
namespace {

void BM_ParseProgram(benchmark::State& state) {
  std::string program;
  for (int i = 0; i < state.range(0); ++i) {
    program += StrFormat("edge(n%d, n%d).", i, i + 1);
  }
  for (auto _ : state) {
    SymbolTable symbols;
    Parser parser(&symbols);
    benchmark::DoNotOptimize(parser.ParseProgram(program));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParseProgram)->Arg(100)->Arg(1000);

void BM_DatabaseContains(benchmark::State& state) {
  SymbolTable symbols;
  Database db;
  SymbolId pred = symbols.Intern("person");
  for (int i = 0; i < state.range(0); ++i) {
    (void)db.Insert(pred, {symbols.Intern(StrFormat("p%d", i))});
  }
  FactTuple hit = {symbols.Intern("p0")};
  FactTuple miss = {symbols.Intern("nobody")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Contains(pred, hit));
    benchmark::DoNotOptimize(db.Contains(pred, miss));
  }
}
BENCHMARK(BM_DatabaseContains)->Arg(1000)->Arg(100000);

void BM_DatabaseMatchIndexed(benchmark::State& state) {
  SymbolTable symbols;
  Database db;
  SymbolId pred = symbols.Intern("age");
  for (int i = 0; i < state.range(0); ++i) {
    (void)db.Insert(pred, {symbols.Intern(StrFormat("p%d", i)),
                           symbols.Intern(StrFormat("%d", i % 90))});
  }
  Atom pattern;
  pattern.predicate = pred;
  pattern.args = {Term::Constant(symbols.Intern("p7")),
                  Term::Variable(symbols.Intern("X"))};
  for (auto _ : state) {
    std::vector<FactTuple> out;
    db.Match(pattern, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DatabaseMatchIndexed)->Arg(1000)->Arg(100000);

void BM_DatabaseExists(benchmark::State& state) {
  // b(p_i, d_j) with one second argument per first, probed with the
  // second position a wildcard: an existential retrieval like kb_serve's
  // b_ij(X, Y), once hitting and once missing.
  SymbolTable symbols;
  Database db;
  SymbolId pred = symbols.Intern("b");
  for (int i = 0; i < state.range(0); ++i) {
    (void)db.Insert(pred, {symbols.Intern(StrFormat("p%d", i)),
                           symbols.Intern(StrFormat("d%d", i % 1000))});
  }
  std::vector<SymbolId> hit = {symbols.Intern("p7"), kInvalidSymbol};
  std::vector<SymbolId> miss = {symbols.Intern("nobody"), kInvalidSymbol};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Exists(pred, hit));
    benchmark::DoNotOptimize(db.Exists(pred, miss));
  }
}
BENCHMARK(BM_DatabaseExists)->Arg(1000)->Arg(100000);

void BM_DatalogContextFor(benchmark::State& state) {
  // A three-level program shaped like the kb_serve knowledge base:
  // q -> r_i -> s_ij, each s_ij with a single-atom rule p_ij(X) and a
  // conjunctive one a_ij(X), b_ij(X, Y), plus one guarded rule; 2 x 3
  // groups over 500 constants, 20 experiments per query.
  constexpr int kGroups = 2, kPerGroup = 3, kConstants = 500;
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  std::string program = "q(c0) :- vip(c0). vip(c0).";
  Rng rng(7);
  for (int i = 0; i < kGroups; ++i) {
    program += StrFormat("q(X) :- r%d(X).", i);
    for (int j = 0; j < kPerGroup; ++j) {
      program += StrFormat(
          "r%d(X) :- s%d_%d(X). s%d_%d(X) :- p%d_%d(X)."
          "s%d_%d(X) :- a%d_%d(X), b%d_%d(X, Y).",
          i, i, j, i, j, i, j, i, j, i, j, i, j);
      for (int c = 0; c < kConstants; ++c) {
        if (rng.NextBernoulli(0.1)) program += StrFormat("p%d_%d(c%d).", i, j, c);
        if (rng.NextBernoulli(0.2)) program += StrFormat("a%d_%d(c%d).", i, j, c);
        if (rng.NextBernoulli(0.15)) {
          program += StrFormat("b%d_%d(c%d, d%d).", i, j, c, c % 97);
        }
      }
    }
  }
  if (!parser.LoadProgram(program, &db, &rules).ok()) {
    state.SkipWithError("program failed to load");
    return;
  }
  Result<QueryForm> form = QueryForm::Parse("q(b)", &symbols);
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  if (!built.ok()) {
    state.SkipWithError("graph failed to build");
    return;
  }
  QueryWorkload workload;
  for (int c = 0; c < kConstants; ++c) {
    workload.entries.push_back({{symbols.Intern(StrFormat("c%d", c))}, 1.0});
  }
  DatalogOracle oracle(&built.value(), &db, workload);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.ContextFor(workload.entries[q].args));
    if (++q == workload.entries.size()) q = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatalogContextFor);

void BM_SldProof(benchmark::State& state) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  std::string program =
      "path(X, Y) :- edge(X, Y)."
      "path(X, Y) :- edge(X, Z), path(Z, Y).";
  for (int i = 0; i < state.range(0); ++i) {
    program += StrFormat("edge(n%d, n%d).", i, i + 1);
  }
  (void)parser.LoadProgram(program, &db, &rules);
  Result<Atom> query = parser.ParseAtom(
      StrFormat("path(n0, n%d)", static_cast<int>(state.range(0))));
  EvaluatorOptions options;
  options.max_depth = static_cast<int>(state.range(0)) + 8;
  Evaluator evaluator(&db, &rules, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Prove(*query, &symbols));
  }
}
BENCHMARK(BM_SldProof)->Arg(8)->Arg(32);

}  // namespace
}  // namespace stratlearn



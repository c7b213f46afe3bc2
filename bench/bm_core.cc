// Micro-benchmarks (google-benchmark) for the hot paths: strategy
// execution, expected-cost evaluation, Upsilon, PIB's per-context
// update, and trace serialisation. These are throughput numbers, not
// paper artifacts.

#include <benchmark/benchmark.h>

#include <ostream>
#include <streambuf>
#include <vector>

#include "core/delta_estimator.h"
#include "core/expected_cost.h"
#include "core/pib.h"
#include "core/transformations.h"
#include "core/upsilon.h"
#include "engine/query_processor.h"
#include "obs/json_writer.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

RandomTree MakeTree(int depth) {
  Rng rng(42 + static_cast<uint64_t>(depth));
  RandomTreeOptions options;
  options.depth = depth;
  options.min_branch = 2;
  options.max_branch = 3;
  options.early_leaf_prob = 0.1;
  return MakeRandomTree(rng, options);
}

void BM_ExecuteStrategy(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  QueryProcessor qp(&tree.graph);
  IndependentOracle oracle(tree.probs);
  Rng rng(7);
  Context ctx = oracle.Next(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp.Execute(theta, ctx));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["arcs"] = static_cast<double>(tree.graph.num_arcs());
}
BENCHMARK(BM_ExecuteStrategy)->Arg(3)->Arg(5)->Arg(7);

// Same hot path with a metrics-only observer attached: the price of
// qp.* counters and wall-time histograms (no trace sink).
void BM_ExecuteStrategyObserved(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  obs::MetricsRegistry registry;
  obs::Observer observer(&registry, nullptr);
  QueryProcessor qp(&tree.graph, &observer);
  IndependentOracle oracle(tree.probs);
  Rng rng(7);
  Context ctx = oracle.Next(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp.Execute(theta, ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecuteStrategyObserved)->Arg(3)->Arg(5)->Arg(7);

// Full observability: metrics plus the StrategyProfiler aggregating
// every event online — the cost of `--profile-out` / `explain` over
// BM_ExecuteStrategyObserved is the profiler's aggregation overhead.
void BM_ExecuteStrategyProfiled(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  obs::MetricsRegistry registry;
  obs::StrategyProfiler profiler;
  obs::Observer observer(&registry, &profiler);
  QueryProcessor qp(&tree.graph, &observer);
  IndependentOracle oracle(tree.probs);
  Rng rng(7);
  Context ctx = oracle.Next(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp.Execute(theta, ctx));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["profiled_arcs"] =
      static_cast<double>(profiler.arcs().size());
}
BENCHMARK(BM_ExecuteStrategyProfiled)->Arg(3)->Arg(5)->Arg(7);

void BM_LeafOnlyExpectedCost(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LeafOnlyExpectedCost(tree.graph, theta, tree.probs));
  }
}
BENCHMARK(BM_LeafOnlyExpectedCost)->Arg(3)->Arg(5)->Arg(7);

void BM_ExactExpectedCostDP(benchmark::State& state) {
  // Force the general O(A^2) DP by adding one internal experiment.
  Rng rng(43);
  RandomTreeOptions options;
  options.depth = static_cast<int>(state.range(0));
  options.internal_experiment_prob = 0.3;
  RandomTree tree = MakeRandomTree(rng, options);
  Strategy theta = Strategy::DepthFirst(tree.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExactExpectedCost(tree.graph, theta, tree.probs));
  }
  state.counters["arcs"] = static_cast<double>(tree.graph.num_arcs());
}
BENCHMARK(BM_ExactExpectedCostDP)->Arg(3)->Arg(5);

void BM_UpsilonFlat(benchmark::State& state) {
  Rng rng(44);
  RandomTree tree = MakeFlatTree(rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(UpsilonAot(tree.graph, tree.probs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UpsilonFlat)->Range(64, 16384)->Complexity();

void BM_UpsilonGuarded(benchmark::State& state) {
  // The pao_traced tree: guards above branching subtrees put it outside
  // the block-merge class, so Upsilon takes its exact path.
  Rng shape(2);
  RandomTreeOptions options;
  options.depth = 3;
  options.min_branch = 2;
  options.max_branch = 3;
  options.internal_experiment_prob = 0.3;
  RandomTree tree = MakeRandomTree(shape, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(UpsilonAot(tree.graph, tree.probs));
  }
  state.counters["leaves"] =
      static_cast<double>(tree.graph.SuccessArcs().size());
}
BENCHMARK(BM_UpsilonGuarded)->Unit(benchmark::kMicrosecond);

void BM_PibObserve(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
          PibOptions{.delta = 0.5});
  IndependentOracle oracle(tree.probs);
  QueryProcessor qp(&tree.graph);
  Rng rng(9);
  for (auto _ : state) {
    pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
  }
  state.counters["neighbors"] =
      static_cast<double>(pib.num_neighbors());
}
BENCHMARK(BM_PibObserve)->Arg(3)->Arg(5);

void BM_DeltaUnderEstimate(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  std::vector<SiblingSwap> swaps = AllSiblingSwaps(tree.graph);
  Strategy alt = ApplySwap(tree.graph, theta, swaps[0]);
  DeltaEstimator estimator(&tree.graph);
  QueryProcessor qp(&tree.graph);
  IndependentOracle oracle(tree.probs);
  Rng rng(10);
  Trace trace = qp.Execute(theta, oracle.Next(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.UnderEstimate(trace, alt));
  }
}
BENCHMARK(BM_DeltaUnderEstimate)->Arg(3)->Arg(5)->Arg(7);

/// Arc costs as the random trees draw them (uniform in [0.5, 2.0]), so
/// every double needs all 17 significant digits to round-trip.
std::vector<double> FullPrecisionCosts() {
  Rng rng(12);
  std::vector<double> costs(1024);
  for (double& c : costs) c = rng.NextUniform(0.5, 2.0);
  return costs;
}

/// Accepts and discards every byte, so a sink's cost is serialisation
/// plus the ostream calls, not I/O.
class DiscardBuf : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

void BM_JsonlSinkArcAttempt(benchmark::State& state) {
  DiscardBuf buf;
  std::ostream out(&buf);
  obs::JsonlSink sink(&out);
  std::vector<double> costs = FullPrecisionCosts();
  obs::ArcAttemptEvent e;
  e.experiment = 3;
  size_t i = 0;
  for (auto _ : state) {
    ++e.query_index;
    e.t_us = e.query_index * 7;
    e.arc = static_cast<uint32_t>(i % 40);
    e.unblocked = (i & 1) != 0;
    e.cost = costs[i++ % costs.size()];
    sink.OnArcAttempt(e);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_JsonlSinkArcAttempt);

void BM_JsonWriterDouble17(benchmark::State& state) {
  std::vector<double> costs = FullPrecisionCosts();
  obs::JsonWriter w(obs::JsonWriter::kRoundTripDigits);
  size_t i = 0;
  for (auto _ : state) {
    w.Reset();
    w.Value(costs[i++ % costs.size()]);
    benchmark::DoNotOptimize(w.str().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_JsonWriterDouble17);

}  // namespace
}  // namespace stratlearn



// Pre-generated contexts for the learning workloads, so the load
// generator runs before timing and the program receives only its
// outputs. Each context carries its reference answer: whether some
// success node is reachable through unblocked experiments.
#ifndef STRATBENCH_REPLAY_H_
#define STRATBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "engine/context.h"
#include "graph/inference_graph.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/oracle.h"

namespace stratbench {

class ReplayPool {
 public:
  /// Draws `size` contexts from `source` with a generator seeded by
  /// `seed`, and derives each one's reference answer.
  ReplayPool(const stratlearn::InferenceGraph& graph,
             stratlearn::ContextOracle&& source, int64_t size,
             uint64_t seed) {
    stratlearn::Rng rng(seed ^ 0x5DEECE66Dull);
    contexts_.reserve(static_cast<size_t>(size));
    answers_.reserve(static_cast<size_t>(size));
    for (int64_t i = 0; i < size; ++i) {
      contexts_.push_back(source.Next(rng));
      answers_.push_back(Reachable(graph, contexts_.back()) ? 1 : 0);
    }
    num_experiments_ = source.num_experiments();
  }

  /// True when some success node's root path has no blocked experiment.
  static bool Reachable(const stratlearn::InferenceGraph& graph,
                        const stratlearn::Context& context) {
    for (stratlearn::ArcId leaf : graph.SuccessArcs()) {
      // Pi(leaf) is the path above the leaf arc; the arc itself counts.
      std::vector<stratlearn::ArcId> path = graph.Pi(leaf);
      path.push_back(leaf);
      bool open = true;
      for (stratlearn::ArcId a : path) {
        int e = graph.arc(a).experiment;
        if (e >= 0 && !context.Unblocked(static_cast<size_t>(e))) {
          open = false;
          break;
        }
      }
      if (open) return true;
    }
    return false;
  }

  size_t size() const { return contexts_.size(); }
  size_t num_experiments() const { return num_experiments_; }
  const stratlearn::Context& context(size_t i) const { return contexts_[i]; }
  bool answer(size_t i) const { return answers_[i] != 0; }
  /// Corrupts one reference answer; used to show the answer check fires.
  void FlipAnswer(size_t i) { answers_[i] = !answers_[i]; }

 private:
  std::vector<stratlearn::Context> contexts_;
  std::vector<char> answers_;
  size_t num_experiments_ = 0;
};

/// A ContextOracle that replays a pool from a starting offset.
class ReplayOracle : public stratlearn::ContextOracle {
 public:
  ReplayOracle(const ReplayPool* pool, int64_t start)
      : pool_(pool), next_(static_cast<size_t>(start)) {}

  stratlearn::Context Next(stratlearn::Rng&) override {
    STRATLEARN_CHECK(next_ < pool_->size());
    last_ = next_++;
    return pool_->context(last_);
  }
  size_t num_experiments() const override {
    return pool_->num_experiments();
  }
  /// Reference answer of the context returned by the last Next.
  bool last_answer() const { return pool_->answer(last_); }

 private:
  const ReplayPool* pool_;
  size_t next_;
  size_t last_ = 0;
};

}  // namespace stratbench

#endif  // STRATBENCH_REPLAY_H_

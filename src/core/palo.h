#ifndef STRATLEARN_CORE_PALO_H_
#define STRATLEARN_CORE_PALO_H_

#include <cstdint>
#include <vector>

#include "core/delta_estimator.h"
#include "core/transformations.h"
#include "engine/query_processor.h"
#include "engine/strategy.h"
#include "graph/inference_graph.h"

namespace stratlearn {

/// PALO — "Probably Approximately Locally Optimal" hill-climbing
/// ([CG91], summarised in the paper's Section 3.2 closing remarks).
///
/// PALO climbs exactly like PIB, but additionally *terminates* once it
/// can certify, with the same lifetime confidence budget, that the
/// current strategy is an epsilon-local optimum:
///    for all Theta' in T(Theta_m):  C[Theta'] >= C[Theta_m] - epsilon.
///
/// The certificate uses the symmetric over-estimates Delta^ >= Delta
/// (DeltaEstimator::OverEstimate): when every neighbour's mean
/// over-estimate plus its Hoeffding deviation is below epsilon, no
/// neighbour can improve by epsilon or more, with high probability. The
/// confidence budget is split: delta/2 for climbing mistakes, delta/2
/// for a premature stop, each spread over the sequential schedule.
struct PaloOptions {
  double delta = 0.05;
  double epsilon = 0.25;
  int test_every = 1;
};

class Palo {
 public:
  using Options = PaloOptions;

  Palo(const InferenceGraph* graph, Strategy initial,
       Options options = PaloOptions(), obs::Observer* observer = nullptr);

  /// Attaches an observer: palo.* metrics plus ClimbMove events and the
  /// PaloStop certificate event.
  void set_observer(obs::Observer* observer);

  /// Records the trace of the current strategy on one context. Returns
  /// true if a hill-climbing move occurred.
  bool Observe(const Trace& trace);

  /// True once the epsilon-local-optimality certificate holds; no
  /// further moves will be made and Observe becomes a no-op.
  bool Finished() const { return finished_; }

  const Strategy& strategy() const { return current_; }
  int64_t contexts_processed() const { return contexts_; }
  int64_t moves_made() const { return moves_; }

  /// Resumable learner state; both estimate ledgers (under for climbing,
  /// over for the stop certificate) are indexed by the neighbourhood the
  /// checkpointed strategy induces, as in Pib::Checkpoint.
  struct Checkpoint {
    Strategy strategy;
    int64_t contexts = 0;
    int64_t trials = 0;
    int64_t samples = 0;
    int64_t moves = 0;
    bool finished = false;
    std::vector<double> neighbor_under_sums;
    std::vector<double> neighbor_over_sums;
  };
  Checkpoint GetCheckpoint() const;
  /// On error the learner keeps its prior state.
  Status RestoreCheckpoint(const Checkpoint& checkpoint);

 private:
  struct Neighbor {
    SiblingSwap swap;
    Strategy strategy;
    size_t diverge = 0;  // first position departing from current_
    double range = 0.0;
    double under_sum = 0.0;
    double over_sum = 0.0;
  };

  void RebuildNeighborhood();
  /// Sets `*worst_certificate` to the max over neighbours of
  /// (mean over-estimate + Hoeffding deviation) it saw before deciding,
  /// `*worst_neighbor` to that neighbour's index (or the size of the
  /// neighbourhood when no sample exists yet) and `*delta_i` to the
  /// per-neighbour stop-test confidence it used.
  bool CheckStop(double* worst_certificate, size_t* worst_neighbor,
                 double* delta_i);

  const InferenceGraph* graph_;
  DeltaEstimator estimator_;
  DeltaEstimator::Workspace workspace_;  // reused across contexts
  Strategy current_;
  Options options_;

  std::vector<Neighbor> neighbors_;
  int64_t contexts_ = 0;
  int64_t trials_ = 0;
  int64_t samples_ = 0;
  int64_t moves_ = 0;
  bool finished_ = false;
  /// Audit mode: delta_i charged by certified decisions (climb commits
  /// on the delta/2 climbing schedule, plus the stop test's
  /// per-neighbour delta_i) — a subsequence of a convergent schedule,
  /// so always < delta.
  double audit_delta_spent_ = 0.0;
  obs::Observer* observer_ = nullptr;
  struct Handles {
    obs::Counter* contexts = nullptr;
    obs::Counter* moves = nullptr;
    obs::Counter* stops = nullptr;
  };
  Handles handles_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_CORE_PALO_H_

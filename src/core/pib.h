#ifndef STRATLEARN_CORE_PIB_H_
#define STRATLEARN_CORE_PIB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/delta_estimator.h"
#include "core/transformations.h"
#include "engine/query_processor.h"
#include "engine/strategy.h"
#include "graph/inference_graph.h"

namespace stratlearn {

/// The anytime PIB hill-climber of Figure 3 (Section 3.2).
///
/// PIB watches the query processor run its current strategy Theta_j.
/// After each query it updates, for every neighbour Theta' in the
/// transformation set T(Theta_j), the running sum of the under-estimates
/// Delta~[Theta_j, Theta', I], and climbs to the first neighbour whose
/// sum crosses the Equation-6 threshold
///    Lambda[Theta_j, Theta'] * sqrt(|S|/2 * ln(i^2 pi^2 / (6 delta))),
/// where i is the cumulative number of (strategy, neighbour) trials. The
/// i^2 pi^2/6 term implements the sequential-test schedule, and Lambda's
/// ln argument also absorbs the |T| simultaneous hypotheses (Equation 5)
/// because i grows by |T| per context. Theorem 1: the probability that
/// *any* climb in the infinite run increases expected cost is < delta.
struct PibOptions {
  double delta = 0.05;
  /// Evaluate the switch condition only every k-th context (Section
  /// 3.2's closing remark: Theorem 1 continues to hold).
  int test_every = 1;
};

/// Read-only view of PIB's internal estimate state, for explain-style
/// introspection (CLI `explain`, tests, reports). Swap descriptions are
/// rendered to strings so the snapshot is self-contained — it stays
/// meaningful after the learner (and its graph) are gone.
struct PibSnapshot {
  struct Neighbor {
    std::string swap;
    double delta_sum = 0.0;   // running sum of Delta~ under-estimates
    double threshold = 0.0;   // current Equation-6 threshold
    double margin = 0.0;      // delta_sum - threshold
    double range = 0.0;       // Lambda range of the swap
  };
  struct Move {
    int64_t at_context = 0;
    int64_t samples_used = 0;
    std::string swap;
    double delta_sum = 0.0;
    double threshold = 0.0;
    double delta_spent = 0.0;  // delta_i consumed by this move
  };

  int64_t contexts = 0;
  int64_t trials = 0;
  int64_t samples_in_epoch = 0;
  double delta = 0.0;              // configured lifetime budget
  double current_test_delta = 0.0; // delta_i at the current trial count
  double delta_spent_moves = 0.0;  // sum of the fired moves' delta_i
  std::vector<Neighbor> neighbors; // current neighbourhood, in T order
  std::vector<Move> moves;         // full climb history
};

class Pib {
 public:
  using Options = PibOptions;

  /// One hill-climbing move, for reporting/anytime curves.
  struct Move {
    int64_t at_context = 0;      // total contexts processed when it fired
    int64_t samples_used = 0;    // |S| of the test that fired
    SiblingSwap swap;
    double delta_sum = 0.0;
    double threshold = 0.0;
    double delta_spent = 0.0;    // delta_i consumed from the budget
  };

  /// Uses T = all sibling swaps of the graph.
  Pib(const InferenceGraph* graph, Strategy initial,
      Options options = PibOptions(), obs::Observer* observer = nullptr);

  /// Uses a caller-selected transformation set.
  Pib(const InferenceGraph* graph, Strategy initial,
      std::vector<SiblingSwap> transformations, Options options,
      obs::Observer* observer = nullptr);

  /// Attaches an observer: pib.* metrics plus SequentialTest/ClimbMove
  /// events from every test round.
  void set_observer(obs::Observer* observer);

  /// Records the trace of the *current* strategy solving one context.
  /// Returns true when a hill-climbing move occurred (the caller must
  /// then run `strategy()` — the new strategy — on subsequent queries).
  bool Observe(const Trace& trace);

  const Strategy& strategy() const { return current_; }
  int64_t contexts_processed() const { return contexts_; }
  /// Figure 3's i: cumulative neighbour trials.
  int64_t trial_count() const { return trials_; }
  /// |S|: contexts observed since the last move.
  int64_t samples_in_epoch() const { return samples_; }
  const std::vector<Move>& moves() const { return moves_; }

  /// The current Equation-6 threshold for neighbour `j` (for
  /// introspection and the ablation benches).
  double ThresholdFor(size_t neighbor) const;
  double DeltaSumFor(size_t neighbor) const;
  size_t num_neighbors() const { return neighbors_.size(); }

  /// Captures the learner's full estimate state (neighbour Delta~ sums,
  /// thresholds, margins, climb history, delta budget) without exposing
  /// any mutable internals.
  PibSnapshot Snapshot() const;

  /// Resumable learner state: everything Observe reads or writes.
  /// `neighbor_delta_sums` is indexed by the neighbourhood that
  /// RebuildNeighborhood derives from `strategy` (deterministic given the
  /// graph and transformation set), so sums survive serialization without
  /// naming their swaps.
  struct Checkpoint {
    Strategy strategy;
    int64_t contexts = 0;
    int64_t trials = 0;
    int64_t samples = 0;
    std::vector<double> neighbor_delta_sums;
    std::vector<Move> moves;
    /// Audit-ledger cursor, so a resumed --audit-out run continues the
    /// delta accounting (and the audit_every subsampling phase) exactly
    /// where the killed run left off.
    double audit_delta_spent = 0.0;
    int64_t audit_rounds = 0;
  };
  Checkpoint GetCheckpoint() const;
  /// Rebuilds the neighbourhood of the checkpointed strategy and
  /// reinstates its Delta~ sums and counters. Rejects checkpoints whose
  /// shape or invariants do not fit this learner's graph/transformation
  /// set; on error the learner keeps its prior state.
  Status RestoreCheckpoint(const Checkpoint& checkpoint);

  /// Recovery action: re-open the sequential test after detected drift
  /// without discarding the current strategy. Zeroes every neighbour's
  /// Delta~ sum along with the epoch sample count (pre-drift evidence
  /// must not certify a post-drift climb) and rewinds the trial counter
  /// to max(1, trials * trials_factor), which widens delta_i back to an
  /// earlier rung of the 6/pi^2 schedule so the test re-converges
  /// faster than a cold restart while Theorem 1's union bound (a
  /// subsequence of the same schedule) still holds.
  void Rebaseline(double trials_factor);

  /// Recovery action scoped to one drifted arc: zeroes the Delta~ sums
  /// of exactly the neighbours whose swap moves a subtree containing
  /// `arc`, keeping every other neighbour's evidence. The shared
  /// samples_/trials_ counters are kept too, which leaves the scoped
  /// neighbours' thresholds conservatively over-estimated (they demand
  /// at least as much post-drift evidence as a fresh epoch would).
  /// Returns the number of neighbours reset.
  int64_t RestartScoped(ArcId arc);

 private:
  struct Neighbor {
    SiblingSwap swap;
    Strategy strategy;
    /// First position where `strategy` departs from current_: the
    /// prepared Delta~ walk resumes here.
    size_t diverge = 0;
    double range = 0.0;
    double delta_sum = 0.0;
  };

  void RebuildNeighborhood();
  /// Builds the decision certificate for one test round's verdict on
  /// `neighbor` and charges its delta_i to the audit ledger. Only
  /// called when the observer has audit enabled.
  obs::DecisionCertificateEvent MakeAuditCertificate(size_t neighbor,
                                                     const char* verdict,
                                                     double threshold);

  const InferenceGraph* graph_;
  DeltaEstimator estimator_;
  /// Per-trace scratch of the prepared Delta~ walk, reused across
  /// contexts.
  DeltaEstimator::Workspace workspace_;
  Strategy current_;
  std::vector<SiblingSwap> transformations_;
  Options options_;

  std::vector<Neighbor> neighbors_;
  int64_t contexts_ = 0;
  int64_t trials_ = 0;
  int64_t samples_ = 0;
  std::vector<Move> moves_;
  /// Audit-mode state: delta_i charged by certified decisions (a
  /// subsequence of the 6/pi^2 schedule, so always < delta) and the
  /// count of audited test rounds (for the observer's audit_every
  /// subsampling of reject certificates).
  double audit_delta_spent_ = 0.0;
  int64_t audit_rounds_ = 0;
  obs::Observer* observer_ = nullptr;
  struct Handles {
    obs::Counter* contexts = nullptr;
    obs::Counter* trials = nullptr;
    obs::Counter* tests = nullptr;
    obs::Counter* moves = nullptr;
  };
  Handles handles_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_CORE_PIB_H_

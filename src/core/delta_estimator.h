#ifndef STRATLEARN_CORE_DELTA_ESTIMATOR_H_
#define STRATLEARN_CORE_DELTA_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "engine/context.h"
#include "engine/query_processor.h"
#include "engine/strategy.h"
#include "graph/inference_graph.h"

namespace stratlearn {

/// The first strategy position at which `alternative` differs from
/// `base` (`base.size()` when they agree everywhere). A sibling swap
/// leaves every arc before its affected region in place, so the prepared
/// Delta~ walk can resume from here (see DeltaEstimator::Prepare).
size_t DivergencePosition(const Strategy& base, const Strategy& alternative);

/// Estimates Delta[Theta, Theta', I] = c(Theta, I) - c(Theta', I)
/// (Section 3.1) — the per-context cost saving of switching to an
/// alternative strategy.
///
/// The exact value needs the full context; the learners only have the
/// *trace* of the current strategy's run, which reveals the outcomes of
/// the attempted experiments only. From a trace the estimator produces:
///
///  * `UnderEstimate` (the paper's Delta~): completes the unobserved part
///    pessimistically for Theta' — unobserved success-bearing arcs are
///    assumed blocked (no early success for Theta') and unobserved
///    internal experiments assumed traversable (Theta' pays their
///    subtrees). Both choices over-estimate c(Theta', I), so
///    Delta~ <= Delta always. This is what PIB feeds into Equation 6.
///
///  * `OverEstimate` (Delta^): the symmetric optimistic completion used
///    by PALO's stopping rule — a lower bound on c(Theta', I) obtained by
///    minimising over the single-success-path completions, giving
///    Delta^ >= Delta.
///
/// With outcome-dependent arc costs (Note 4 / [OG90]) the completions
/// additionally charge unobserved experiments their maximum (resp.
/// minimum) attempt cost, keeping both bounds sound; this reduces to the
/// plain execution cost in the paper's fixed-cost model.
///
/// Both estimates run one satisficing walk of Theta' over per-arc
/// charges and traversability fixed by the completion. The learners
/// estimate one trace against many neighbours of the same Theta, so the
/// walk is *prepared*: `Prepare` builds the completion once per trace and
/// walks Theta under it, recording the partial cost before every
/// position and the position at which each node was first reached. A
/// neighbour that agrees with Theta on positions [0, diverge) then only
/// walks from `diverge` on, starting from Theta's partial cost and
/// reached nodes — or costs exactly c(Theta, J) when Theta's walk
/// stopped at a success before `diverge`. The suffix is still summed
/// arc by arc in Theta' order, so every estimate is bit-identical to a
/// full walk from position 0.
///
/// The estimator itself is immutable (const methods, safe to share
/// across threads); all per-trace state lives in a caller-owned
/// Workspace, which learners keep and reuse so that steady-state
/// estimation allocates nothing.
class DeltaEstimator {
 public:
  /// Scratch state of the prepared walk. Opaque to callers; sized on
  /// first use and reused across traces.
  class Workspace {
   private:
    friend class DeltaEstimator;

    /// A fresh generation for the suffix walk's reached-node marks.
    uint32_t NextEpoch();

    std::vector<char> observed_;      // per experiment: attempted
    std::vector<char> outcome_;       // per experiment: observed unblocked
    std::vector<char> pass_under_;    // per arc: traversable under J
    std::vector<double> charge_max_;  // per arc: attempt cost, unobserved
                                      // arcs at their maximum
    /// OverEstimate's base completion (every unobserved experiment
    /// blocked, charged its minimum), built on the first OverEstimate
    /// after each Prepare.
    bool over_ready_ = false;
    std::vector<char> pass_over_;
    std::vector<double> charge_min_;
    /// Theta's walk under J: the cost before each position (size + 1
    /// entries, valid up to the stop position) and, per node, 1 + the
    /// position of the arc that first reached it (0 for the root,
    /// kUnreached when never reached).
    std::vector<double> prefix_cost_;
    std::vector<uint32_t> reached_at_;
    /// The same record for the alternative's walk under OverEstimate's
    /// base completion, plus 1 + the position at which each arc was
    /// attempted.
    std::vector<double> over_prefix_;
    std::vector<uint32_t> over_reached_at_;
    std::vector<uint32_t> over_attempted_at_;
    /// Per node: the resumed walk's epoch that reached it.
    std::vector<uint32_t> stamp_;
    uint32_t epoch_ = 0;
    size_t stop_ = 0;          // position of Theta's success stop
    double base_cost_ = 0.0;   // c_max(Theta, J)
    double trace_cost_ = 0.0;  // the observed c(Theta, I)
  };

  explicit DeltaEstimator(const InferenceGraph* graph);

  /// Exact Delta given the full context.
  double ExactDelta(const Strategy& strategy, const Strategy& alternative,
                    const Context& context) const;

  /// Delta~ <= Delta from the current strategy's trace alone.
  double UnderEstimate(const Trace& trace,
                       const Strategy& alternative) const;

  /// Delta^ >= Delta from the current strategy's trace alone.
  double OverEstimate(const Trace& trace, const Strategy& alternative) const;

  /// Builds `trace`'s completions in `workspace` and walks `base` (the
  /// strategy whose neighbours will be estimated; usually the one that
  /// produced the trace) under the pessimistic completion J. An empty
  /// `base` prepares the completions only, for diverge = 0 estimates.
  void Prepare(const Trace& trace, const Strategy& base,
               Workspace* workspace) const;

  /// Delta~ of the prepared trace for `alternative`, which must agree
  /// with the prepared base on positions [0, diverge) (diverge = 0 is
  /// always valid). Bit-identical to UnderEstimate(trace, alternative).
  double UnderEstimate(const Strategy& alternative, size_t diverge,
                       Workspace* workspace) const;

  /// Delta^ of the prepared trace for `alternative`. Bit-identical to
  /// OverEstimate(trace, alternative). Walks `alternative` once under
  /// the all-unobserved-blocked completion, then resumes each favoured
  /// success path's completion where it first departs from that walk.
  double OverEstimate(const Strategy& alternative,
                      Workspace* workspace) const;

 private:
  /// The arc table fields the walks read, packed per arc.
  struct ArcShape {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    ArcId parent = kInvalidArc;  // the arc into `from` (root: invalid)
    int experiment = -1;
    bool to_success = false;
    double charge_unblocked = 0.0;  // cost + success_cost
    double charge_blocked = 0.0;    // cost + failure_cost
  };

  /// The satisficing walk of `strategy` from position 0 under `charge`
  /// and `pass` (an arc is attempted when its tail was reached, charged
  /// `charge[arc]`, and makes its head reachable when `pass[arc]`; the
  /// walk stops at the first success node), recording the cost before
  /// each position into `prefix`, each node's 1 + reaching position into
  /// `reached_at` (which must hold kUnreached, root 0) and, when not
  /// null, each arc's 1 + attempt position into `attempted_at`. Sets
  /// `*stop` to the success position (kNoStop if none). Returns the cost.
  double RecordedWalk(const Strategy& strategy, const double* charge,
                      const char* pass, double* prefix, uint32_t* reached_at,
                      uint32_t* attempted_at, size_t* stop) const;

  /// The same walk resumed at position `begin` with partial cost `cost`:
  /// nodes with reached_at <= begin count as reached. Returns the cost.
  double ResumedWalk(const Strategy& strategy, size_t begin, double cost,
                     const double* charge, const char* pass,
                     const uint32_t* reached_at, Workspace* workspace) const;

  const InferenceGraph* graph_;
  QueryProcessor processor_;
  /// The graph's arc table compiled at construction (the graph must not
  /// change afterwards), and each completion's per-arc traversability
  /// and charge before any observation; Prepare patches in the trace.
  std::vector<ArcShape> shape_;
  std::vector<ArcId> success_arcs_;
  std::vector<char> unobserved_pass_under_;
  std::vector<double> unobserved_charge_max_;
  std::vector<char> unobserved_pass_over_;
  std::vector<double> unobserved_charge_min_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_CORE_DELTA_ESTIMATOR_H_

#include "core/upsilon.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "core/expected_cost.h"
#include "util/check.h"

namespace stratlearn {

namespace {

/// A block of consecutively-scheduled arcs: `C` is its expected cost once
/// started, `Q` the probability it fails to end the search, `leaves` the
/// success arcs it visits, in order.
struct Block {
  double C = 0.0;
  double Q = 1.0;
  std::vector<ArcId> leaves;

  double Ratio() const {
    if (C <= 0.0) return std::numeric_limits<double>::infinity();
    return (1.0 - Q) / C;
  }
};

Block MergeBlocks(Block first, const Block& second) {
  first.C += first.Q * second.C;
  first.Q *= second.Q;
  first.leaves.insert(first.leaves.end(), second.leaves.begin(),
                      second.leaves.end());
  return first;
}

/// K-way merge of block sequences (each of non-increasing ratio) into one
/// sequence of non-increasing ratio. Heap-based: O(total log k), which
/// matters for flat graphs whose root has thousands of children.
std::deque<Block> MergeSequences(std::vector<std::deque<Block>> seqs) {
  struct HeapEntry {
    double ratio;
    size_t seq;
  };
  auto worse = [](const HeapEntry& a, const HeapEntry& b) {
    return a.ratio < b.ratio;  // max-heap on ratio
  };
  std::vector<HeapEntry> heap;
  heap.reserve(seqs.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    if (!seqs[i].empty()) heap.push_back({seqs[i].front().Ratio(), i});
  }
  std::make_heap(heap.begin(), heap.end(), worse);

  std::deque<Block> out;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    size_t i = heap.back().seq;
    heap.pop_back();
    out.push_back(std::move(seqs[i].front()));
    seqs[i].pop_front();
    if (!seqs[i].empty()) {
      heap.push_back({seqs[i].front().Ratio(), i});
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  return out;
}

/// Prepends `prefix` (the parent arc's own block) to `seq`, merging
/// forward while the front's ratio is below its successor's, so the
/// sequence stays non-increasing (Sidney decomposition step).
void GlueFront(Block prefix, std::deque<Block>& seq) {
  while (!seq.empty() && prefix.Ratio() < seq.front().Ratio()) {
    prefix = MergeBlocks(std::move(prefix), seq.front());
    seq.pop_front();
  }
  seq.push_front(std::move(prefix));
}

double PassProb(const InferenceGraph& graph, ArcId a,
                const std::vector<double>& probs) {
  int e = graph.arc(a).experiment;
  return e < 0 ? 1.0 : probs[static_cast<size_t>(e)];
}

/// Bottom-up block construction for the subtree hanging from `arc`.
/// Exact when IsBlockMergeExact(graph); otherwise the internal-experiment
/// discounting below is a documented approximation.
std::deque<Block> SolveArc(const InferenceGraph& graph,
                           const std::vector<double>& probs, ArcId arc) {
  const Arc& a = graph.arc(arc);
  double p = PassProb(graph, arc, probs);
  if (graph.node(a.to).is_success) {
    Block b;
    b.C = a.ExpectedAttemptCost(p);
    b.Q = 1.0 - p;
    b.leaves = {arc};
    return {std::move(b)};
  }
  const Node& head = graph.node(a.to);
  if (head.out_arcs.empty()) {
    // Dead end: pure cost, can never succeed.
    Block b;
    b.C = a.ExpectedAttemptCost(p);
    b.Q = 1.0;
    return {std::move(b)};
  }
  std::vector<std::deque<Block>> child_seqs;
  child_seqs.reserve(head.out_arcs.size());
  for (ArcId c : head.out_arcs) {
    child_seqs.push_back(SolveArc(graph, probs, c));
  }
  std::deque<Block> merged = MergeSequences(std::move(child_seqs));
  if (p < 1.0) {
    // Internal experiment: everything below is reached (and can succeed)
    // only when the experiment passes. Exact for chains (a single child
    // sequence that the glue below collapses into one block); an
    // approximation when the experiment guards a branching subtree,
    // because the shared pass event correlates the sibling blocks.
    for (Block& b : merged) {
      b.C *= p;
      b.Q = 1.0 - p * (1.0 - b.Q);
    }
  }
  Block prefix;
  prefix.C = a.ExpectedAttemptCost(p);
  prefix.Q = 1.0;
  GlueFront(std::move(prefix), merged);
  return merged;
}

}  // namespace

bool IsBlockMergeExact(const InferenceGraph& graph) {
  for (ArcId e : graph.experiments()) {
    // The experiment's head subtree must be a pure chain ending in a
    // success node: splitting such a chain never helps, so collapsing it
    // into a composite job preserves optimality.
    NodeId n = graph.arc(e).to;
    while (!graph.node(n).is_success) {
      const Node& node = graph.node(n);
      if (node.out_arcs.size() != 1) return false;
      n = graph.arc(node.out_arcs[0]).to;
    }
  }
  return true;
}

Result<UpsilonResult> UpsilonAot(const InferenceGraph& graph,
                                 const std::vector<double>& probs,
                                 const UpsilonOptions& options) {
  if (probs.size() != graph.num_experiments()) {
    return Status::InvalidArgument(
        "probability vector size does not match experiment count");
  }
  for (double p : probs) {
    if (p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("probabilities must lie in [0, 1]");
    }
  }
  STRATLEARN_RETURN_IF_ERROR(graph.Validate());

  const bool exact_class = IsBlockMergeExact(graph);
  if (!exact_class &&
      graph.SuccessArcs().size() <=
          std::min(options.max_brute_force_leaves, kMaxSubsetDpLeaves)) {
    Result<OptimalResult> best = SubsetDpOptimal(graph, probs);
    if (!best.ok()) return best.status();
    UpsilonResult out;
    out.strategy = std::move(best->strategy);
    out.expected_cost = best->cost;
    out.exact = true;
    return out;
  }
  if (!exact_class && !options.allow_approximation) {
    return Status::Unimplemented(
        "graph has experiments guarding branching subtrees; exact "
        "Upsilon for this class is intractable (paper Section 4 / "
        "[Gre91]) and approximation was disabled");
  }

  std::vector<std::deque<Block>> child_seqs;
  for (ArcId c : graph.node(graph.root()).out_arcs) {
    child_seqs.push_back(SolveArc(graph, probs, c));
  }
  std::deque<Block> merged = MergeSequences(std::move(child_seqs));

  std::vector<ArcId> leaf_order;
  for (const Block& b : merged) {
    leaf_order.insert(leaf_order.end(), b.leaves.begin(), b.leaves.end());
  }
  UpsilonResult out;
  out.strategy = Strategy::FromLeafOrder(graph, leaf_order);
  out.expected_cost = ExactExpectedCost(graph, out.strategy, probs);
  out.exact = exact_class;
  return out;
}

}  // namespace stratlearn

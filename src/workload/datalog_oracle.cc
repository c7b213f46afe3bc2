#include "workload/datalog_oracle.h"

#include "util/check.h"
#include "util/math_util.h"

namespace stratlearn {

DatalogOracle::DatalogOracle(const BuiltGraph* built, const Database* db,
                             QueryWorkload workload)
    : db_(db), workload_(std::move(workload)) {
  STRATLEARN_CHECK(!workload_.entries.empty());
  weights_.reserve(workload_.entries.size());
  for (const auto& e : workload_.entries) {
    STRATLEARN_CHECK(e.weight >= 0.0);
    weights_.push_back(e.weight);
  }
  probes_.resize(built->graph.num_experiments());
  for (size_t e = 0; e < probes_.size(); ++e) {
    ArcId arc = built->graph.experiments()[e];
    auto retrieval = built->retrievals.find(arc);
    if (retrieval != built->retrievals.end()) {
      probes_[e].retrieval = &retrieval->second;
      continue;
    }
    auto guard = built->guards.find(arc);
    STRATLEARN_CHECK_MSG(guard != built->guards.end(),
                         "experiment arc has neither retrieval nor guard");
    probes_[e].guard = &guard->second;
  }
  ResolveRelations();
}

size_t DatalogOracle::num_experiments() const { return probes_.size(); }

void DatalogOracle::ResolveRelations() const {
  for (Probe& p : probes_) {
    if (p.retrieval != nullptr) p.relation = db_->Find(p.retrieval->predicate);
  }
  probes_epoch_ = db_->epoch();
}

Context DatalogOracle::ContextFor(
    const std::vector<SymbolId>& query_args) const {
  if (probes_epoch_ != db_->epoch()) ResolveRelations();
  Context c(probes_.size());
  for (size_t e = 0; e < probes_.size(); ++e) {
    const Probe& p = probes_[e];
    c.Set(e, p.retrieval != nullptr
                 ? p.retrieval->Succeeds(*db_, p.relation, query_args)
                 : p.guard->Satisfied(query_args));
  }
  return c;
}

Context DatalogOracle::Next(Rng& rng) {
  last_query_ = rng.NextDiscrete(weights_);
  return ContextFor(workload_.entries[last_query_].args);
}

const std::vector<SymbolId>& DatalogOracle::last_query_args() const {
  static const std::vector<SymbolId> kNone;
  return last_query_ == kNoQuery ? kNone : workload_.entries[last_query_].args;
}

std::vector<double> DatalogOracle::TrueMarginalProbs() const {
  double total_weight = 0.0;
  for (const auto& e : workload_.entries) total_weight += e.weight;
  STRATLEARN_CHECK(total_weight > 0.0);
  std::vector<double> probs(probes_.size(), 0.0);
  for (const auto& e : workload_.entries) {
    Context c = ContextFor(e.args);
    for (size_t i = 0; i < probs.size(); ++i) {
      if (c.Unblocked(i)) probs[i] += e.weight / total_weight;
    }
  }
  // Accumulated floating-point error can push a certain event a hair
  // past 1.0; clamp so the probabilities stay valid.
  for (double& p : probs) p = ClampProbability(p);
  return probs;
}

}  // namespace stratlearn

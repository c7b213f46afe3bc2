#include "graph/builder.h"

#include <unordered_set>

#include "datalog/parser.h"
#include "datalog/unify.h"
#include "util/string_util.h"

namespace stratlearn {

namespace {

/// Builder state threaded through the recursive unfolding.
struct BuildState {
  const RuleBase* rules;
  SymbolTable* symbols;
  const BuildOptions* options;
  BuiltGraph* out;
  /// Query-position variables: symbol of "$i" -> i.
  std::unordered_map<SymbolId, int> query_var_pos;
  int rename_counter = 0;
  /// Predicates on the current unfolding stack (recursion detection).
  std::vector<SymbolId> predicate_stack;
};

std::string AtomLabel(const Atom& atom, const SymbolTable& symbols) {
  return atom.ToString(symbols);
}

/// Classifies a resolved term for retrieval-spec purposes.
RetrievalSpec::ArgSpec ClassifyTerm(const Term& term, const BuildState& st) {
  RetrievalSpec::ArgSpec spec;
  if (term.is_constant()) {
    spec.source = RetrievalSpec::ArgSpec::kConstant;
    spec.constant = term.symbol;
    return spec;
  }
  auto it = st.query_var_pos.find(term.symbol);
  if (it != st.query_var_pos.end()) {
    spec.source = it->second;
    return spec;
  }
  spec.source = RetrievalSpec::ArgSpec::kExistential;
  return spec;
}

RetrievalSpec MakeRetrievalSpec(const Atom& atom, const Substitution& subst,
                                const BuildState& st) {
  RetrievalSpec spec;
  spec.predicate = atom.predicate;
  spec.args.reserve(atom.args.size());
  for (const Term& t : atom.args) {
    spec.args.push_back(ClassifyTerm(subst.Walk(t), st));
  }
  return spec;
}

/// Collects the existential variables (not constants, not query vars) of
/// `atom` after substitution.
void CollectExistentialVars(const Atom& atom, const Substitution& subst,
                            const BuildState& st,
                            std::unordered_set<SymbolId>* vars) {
  for (const Term& t : atom.args) {
    Term r = subst.Walk(t);
    if (r.is_variable() && st.query_var_pos.count(r.symbol) == 0) {
      vars->insert(r.symbol);
    }
  }
}

Status UnfoldGoal(BuildState& st, NodeId goal_node, const Atom& goal,
                  int depth);

/// Expands one rule application under `goal_node`.
Status ExpandRule(BuildState& st, NodeId goal_node, const Atom& goal,
                  const Clause& rule, int rule_index, int depth) {
  Clause fresh = RenameClause(rule, st.rename_counter++, st.symbols);
  Substitution subst;
  if (!UnifyAtoms(goal, fresh.head, &subst)) return Status::OK();  // skip

  // Guards: a query-position variable forced to a constant by the head.
  // Unification may also have aliased a query variable to one of the
  // rule's (renamed, globally fresh) variables; record those aliases so
  // the body atoms resolve back to query positions.
  GuardSpec guard;
  {
    std::vector<std::pair<SymbolId, int>> aliases;
    for (const auto& [var, pos] : st.query_var_pos) {
      Term walked = subst.Walk(Term::Variable(var));
      if (walked.is_constant()) {
        guard.equalities.emplace_back(pos, walked.symbol);
      } else if (walked.symbol != var &&
                 st.query_var_pos.count(walked.symbol) == 0) {
        aliases.emplace_back(walked.symbol, pos);
      }
    }
    for (const auto& [sym, pos] : aliases) st.query_var_pos.emplace(sym, pos);
  }

  // Classify body atoms after substitution.
  struct BodyAtom {
    Atom resolved;
    bool intensional;
  };
  std::vector<BodyAtom> body;
  body.reserve(fresh.body.size());
  for (const Atom& b : fresh.body) {
    BodyAtom ba;
    ba.resolved = subst.Apply(b);
    ba.intensional = st.rules->IsIntensional(b.predicate);
    body.push_back(std::move(ba));
  }

  // Reject hypergraph-only shapes.
  for (size_t i = 0; i + 1 < body.size(); ++i) {
    if (body[i].intensional) {
      return Status::Unimplemented(StrFormat(
          "rule %d for '%s': an intensional body atom before the last "
          "position requires hypergraph strategies (paper Note 4)",
          rule_index, st.symbols->Name(goal.predicate).c_str()));
    }
  }
  {
    std::unordered_set<SymbolId> seen;
    for (const BodyAtom& ba : body) {
      std::unordered_set<SymbolId> here;
      CollectExistentialVars(ba.resolved, subst, st, &here);
      for (SymbolId v : here) {
        if (!seen.insert(v).second) {
          return Status::Unimplemented(StrFormat(
              "rule %d for '%s': existential join variables across body "
              "atoms require hypergraph strategies (paper Note 4)",
              rule_index, st.symbols->Name(goal.predicate).c_str()));
        }
      }
    }
  }

  if (st.out->graph.num_arcs() + body.size() + 1 > st.options->max_arcs) {
    return Status::ResourceExhausted("inference graph exceeds max_arcs");
  }

  const bool guarded = !guard.equalities.empty();
  const bool tail_intensional = !body.empty() && body.back().intensional;

  std::string rule_label = StrFormat(
      "R%d:%s", rule_index, st.symbols->Name(goal.predicate).c_str());

  if (body.empty()) {
    // Degenerate rule "h." would be a fact; RuleBase rejects those, but a
    // fully-guarded rule body can also be empty after unification only in
    // that case. Treat defensively.
    return Status::Internal("rule with empty body in RuleBase");
  }

  // The reduction arc: goal -> first body node.
  auto first = st.out->graph.AddChild(
      goal_node, AtomLabel(body[0].resolved, *st.symbols),
      ArcKind::kReduction, st.options->reduction_cost, rule_label,
      /*is_experiment=*/guarded, /*is_success=*/false);
  if (guarded) st.out->guards.emplace(first.arc, guard);
  NodeId current = first.node;

  const size_t num_retrievals = body.size() - (tail_intensional ? 1 : 0);
  for (size_t i = 0; i < num_retrievals; ++i) {
    const Atom& atom = body[i].resolved;
    const bool last_arc = (i + 1 == body.size());
    std::string label = "D:" + AtomLabel(atom, *st.symbols);
    std::string next_label =
        last_arc ? "[" + label + "]"
                 : AtomLabel(body[i + 1].resolved, *st.symbols);
    auto added = st.out->graph.AddChild(
        current, std::move(next_label), ArcKind::kRetrieval,
        st.options->retrieval_cost, std::move(label),
        /*is_experiment=*/true, /*is_success=*/last_arc);
    st.out->retrievals.emplace(added.arc,
                               MakeRetrievalSpec(atom, subst, st));
    current = added.node;
  }

  if (tail_intensional) {
    // `current` is now the subgoal node for the intensional tail atom.
    return UnfoldGoal(st, current, body.back().resolved, depth + 1);
  }
  return Status::OK();
}

Status UnfoldGoal(BuildState& st, NodeId goal_node, const Atom& goal,
                  int depth) {
  if (depth > st.options->max_depth) {
    return Status::ResourceExhausted(
        StrFormat("rule unfolding exceeded max_depth=%d",
                  st.options->max_depth));
  }
  for (SymbolId p : st.predicate_stack) {
    if (p == goal.predicate) {
      return Status::InvalidArgument(StrFormat(
          "predicate '%s' is recursive; inference graphs require "
          "non-recursive rule bases (Section 4, Computational Efficiency)",
          st.symbols->Name(goal.predicate).c_str()));
    }
  }

  if (!st.rules->IsIntensional(goal.predicate)) {
    // Extensional goal: a single retrieval arc to a success box.
    Substitution identity;
    std::string label = "D:" + AtomLabel(goal, *st.symbols);
    auto added = st.out->graph.AddChild(
        goal_node, "[" + label + "]", ArcKind::kRetrieval,
        st.options->retrieval_cost, std::move(label),
        /*is_experiment=*/true, /*is_success=*/true);
    st.out->retrievals.emplace(added.arc,
                               MakeRetrievalSpec(goal, identity, st));
    return Status::OK();
  }

  st.predicate_stack.push_back(goal.predicate);
  const std::vector<Clause>& rules = st.rules->RulesFor(goal.predicate);
  for (size_t i = 0; i < rules.size(); ++i) {
    STRATLEARN_RETURN_IF_ERROR(
        ExpandRule(st, goal_node, goal, rules[i], static_cast<int>(i),
                   depth));
  }
  st.predicate_stack.pop_back();
  return Status::OK();
}

}  // namespace

bool RetrievalSpec::IsExistential() const {
  for (const ArgSpec& a : args) {
    if (a.source == ArgSpec::kExistential) return true;
  }
  return false;
}

bool RetrievalSpec::Succeeds(const Database& db,
                             const std::vector<SymbolId>& query_args) const {
  return Succeeds(db, db.Find(predicate), query_args);
}

bool RetrievalSpec::Succeeds(const Database& db,
                             Database::RelationRef relation,
                             std::span<const SymbolId> query_args) const {
  TupleKey key(args.size());
  std::span<SymbolId> pattern = key.span();
  for (size_t i = 0; i < args.size(); ++i) {
    const ArgSpec& a = args[i];
    if (a.source >= 0) {
      STRATLEARN_CHECK(static_cast<size_t>(a.source) < query_args.size());
      pattern[i] = query_args[a.source];
    } else if (a.source == ArgSpec::kConstant) {
      pattern[i] = a.constant;
    } else {
      pattern[i] = kInvalidSymbol;
    }
  }
  return db.Exists(relation, pattern);
}

bool GuardSpec::Satisfied(const std::vector<SymbolId>& query_args) const {
  for (const auto& [pos, constant] : equalities) {
    STRATLEARN_CHECK(static_cast<size_t>(pos) < query_args.size());
    if (query_args[pos] != constant) return false;
  }
  return true;
}

Result<QueryForm> QueryForm::Parse(std::string_view text,
                                   SymbolTable* symbols) {
  Parser parser(symbols);
  Result<Atom> atom = parser.ParseAtom(text);
  if (!atom.ok()) return atom.status();
  QueryForm form;
  form.predicate = atom->predicate;
  form.bound.reserve(atom->args.size());
  for (const Term& t : atom->args) {
    const std::string& name = symbols->Name(t.symbol);
    if (name == "b") {
      form.bound.push_back(true);
    } else if (name == "f") {
      form.bound.push_back(false);
    } else {
      return Status::InvalidArgument(
          "query form arguments must be 'b' or 'f', got '" + name + "'");
    }
  }
  return form;
}

Result<BuiltGraph> BuildInferenceGraph(const RuleBase& rules,
                                       const QueryForm& form,
                                       SymbolTable* symbols,
                                       const BuildOptions& options) {
  if (form.predicate == kInvalidSymbol) {
    return Status::InvalidArgument("query form has no predicate");
  }
  BuiltGraph out;
  out.form = form;

  BuildState st;
  st.rules = &rules;
  st.symbols = symbols;
  st.options = &options;
  st.out = &out;

  // Root goal atom: bound positions become query-position variables "$i";
  // free positions become existential variables.
  Atom goal;
  goal.predicate = form.predicate;
  for (size_t i = 0; i < form.bound.size(); ++i) {
    SymbolId var = symbols->Intern(StrFormat("$%zu", i));
    goal.args.push_back(Term::Variable(var));
    if (form.bound[i]) {
      st.query_var_pos.emplace(var, static_cast<int>(i));
    }
    // Free positions: leave as plain (existential) variables.
  }

  out.graph.AddRoot(goal.ToString(*symbols));
  STRATLEARN_RETURN_IF_ERROR(UnfoldGoal(st, out.graph.root(), goal, 0));
  STRATLEARN_RETURN_IF_ERROR(out.graph.Validate());
  if (out.graph.num_arcs() == 0) {
    return Status::InvalidArgument(
        "query form produced an empty inference graph (no rules or facts "
        "reachable)");
  }
  return out;
}

}  // namespace stratlearn

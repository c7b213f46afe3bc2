#include "datalog/database.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace stratlearn {

namespace {

uint64_t HashKey(const SymbolId* key, size_t size) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ key[i]) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace

size_t Database::Relation::FindSlot(const std::vector<uint32_t>& table,
                                    std::span<const SymbolId> key) const {
  const size_t mask = table.size() - 1;
  size_t s = HashKey(key.data(), key.size()) & mask;
  while (table[s] != kEmptySlot &&
         !std::equal(key.begin(), key.end(), tuple(table[s]))) {
    s = (s + 1) & mask;
  }
  return s;
}

void Database::Relation::Grow(std::vector<uint32_t>* table,
                              size_t prefix) {
  std::vector<uint32_t> old(std::max<size_t>(16, table->size() * 2),
                            kEmptySlot);
  old.swap(*table);
  const size_t mask = table->size() - 1;
  for (uint32_t i : old) {
    if (i == kEmptySlot) continue;
    size_t s = HashKey(tuple(i), prefix) & mask;
    while ((*table)[s] != kEmptySlot) s = (s + 1) & mask;
    (*table)[s] = i;
  }
}

template <typename Visit>
bool Database::Relation::ForEachWithFirst(SymbolId first,
                                          Visit visit) const {
  const uint32_t last = LastWithFirst(first);
  if (last == kEmptySlot) return false;
  for (uint32_t i = next_same_first[last];; i = next_same_first[i]) {
    if (visit(i)) return true;
    if (i == last) return false;
  }
}

// Assigning to a database or moving out of it replaces its relations,
// so both move its epoch past every value it had: handles taken from it
// before are stale.
Database::Database(Database&& other) noexcept
    : relations_(std::exchange(other.relations_, {})), epoch_(other.epoch_) {
  ++other.epoch_;
}

Database& Database::operator=(const Database& other) {
  if (this != &other) {
    relations_ = other.relations_;
    ++epoch_;
  }
  return *this;
}

Database& Database::operator=(Database&& other) noexcept {
  if (this != &other) {
    relations_ = std::exchange(other.relations_, {});
    ++epoch_;
    ++other.epoch_;
  }
  return *this;
}

Status Database::Insert(const Atom& fact) {
  if (!fact.IsGround()) {
    return Status::InvalidArgument("database facts must be ground");
  }
  TupleKey key(fact.args.size());
  for (size_t i = 0; i < fact.args.size(); ++i) {
    key.span()[i] = fact.args[i].symbol;
  }
  return Insert(fact.predicate, key.span());
}

Status Database::Insert(SymbolId predicate, std::span<const SymbolId> args) {
  auto [it, added] = relations_.try_emplace(predicate);
  Relation& rel = it->second;
  if (added) {
    rel.arity = static_cast<int>(args.size());
    ++epoch_;
  } else if (rel.arity != static_cast<int>(args.size())) {
    return Status::FailedPrecondition(
        StrFormat("arity mismatch for predicate %u: have %d, got %zu",
                  predicate, rel.arity, args.size()));
  }
  // Grow first, so the tables stay at most half full with the new tuple
  // (a relation has no more first arguments than tuples).
  if ((static_cast<size_t>(rel.size) + 1) * 2 > rel.members.size()) {
    rel.Grow(&rel.members, args.size());
    rel.Grow(&rel.by_first, 1);
  }
  size_t slot = rel.FindSlot(rel.members, args);
  if (rel.members[slot] != kEmptySlot) return Status::OK();  // duplicate
  STRATLEARN_CHECK(rel.size < kEmptySlot - 1);
  const uint32_t i = rel.size++;
  rel.members[slot] = i;
  rel.symbols.insert(rel.symbols.end(), args.begin(), args.end());
  if (!args.empty()) {
    // Splice i into its group's ring after the group's latest tuple.
    uint32_t& last = rel.by_first[rel.FindSlot(rel.by_first, args.first(1))];
    if (last == kEmptySlot) {
      rel.next_same_first.push_back(i);
    } else {
      rel.next_same_first.push_back(rel.next_same_first[last]);
      rel.next_same_first[last] = i;
    }
    last = i;
  }
  return Status::OK();
}

Database::RelationRef Database::Find(SymbolId predicate) const {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : &it->second;
}

bool Database::Contains(const Atom& fact) const {
  if (!fact.IsGround()) return false;
  TupleKey key(fact.args.size());
  for (size_t i = 0; i < fact.args.size(); ++i) {
    key.span()[i] = fact.args[i].symbol;
  }
  return Contains(fact.predicate, key.span());
}

bool Database::Contains(SymbolId predicate,
                        std::span<const SymbolId> args) const {
  return Contains(Find(predicate), args);
}

bool Database::Contains(RelationRef relation,
                        std::span<const SymbolId> args) const {
  if (relation == nullptr ||
      relation->arity != static_cast<int>(args.size())) {
    return false;
  }
  return relation->members[relation->FindSlot(relation->members, args)] !=
         kEmptySlot;
}

bool Database::Exists(SymbolId predicate,
                      std::span<const SymbolId> pattern) const {
  return Exists(Find(predicate), pattern);
}

bool Database::Exists(RelationRef relation,
                      std::span<const SymbolId> pattern) const {
  if (relation == nullptr ||
      relation->arity != static_cast<int>(pattern.size())) {
    return false;
  }
  const auto wildcards = static_cast<size_t>(
      std::count(pattern.begin(), pattern.end(), kInvalidSymbol));
  if (wildcards == 0) return Contains(relation, pattern);
  if (wildcards == pattern.size()) return relation->size > 0;

  auto agrees = [relation, pattern](uint32_t i) {
    const SymbolId* t = relation->tuple(i);
    for (size_t k = 0; k < pattern.size(); ++k) {
      if (pattern[k] != kInvalidSymbol && pattern[k] != t[k]) return false;
    }
    return true;
  };
  if (pattern[0] != kInvalidSymbol) {
    // Only the first position bound: any tuple of the group agrees.
    if (wildcards + 1 == pattern.size()) {
      return relation->LastWithFirst(pattern[0]) != kEmptySlot;
    }
    return relation->ForEachWithFirst(pattern[0], agrees);
  }
  for (uint32_t i = 0; i < relation->size; ++i) {
    if (agrees(i)) return true;
  }
  return false;
}

void Database::Match(const Atom& pattern, std::vector<FactTuple>* out) const {
  RelationRef rel = Find(pattern.predicate);
  if (rel == nullptr || rel->arity != static_cast<int>(pattern.args.size())) {
    return;
  }
  const std::vector<Term>& args = pattern.args;

  // A repeated variable binds consistently when each later occurrence
  // equals its first: work out those position pairs once per call.
  std::vector<std::pair<size_t, size_t>> repeats;
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i].is_variable()) continue;
    for (size_t j = 0; j < i; ++j) {
      if (args[j] == args[i]) {
        repeats.emplace_back(j, i);
        break;
      }
    }
  }
  auto matches = [&args, &repeats](const SymbolId* tuple) {
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i].is_constant() && tuple[i] != args[i].symbol) return false;
    }
    for (const auto& [first, later] : repeats) {
      if (tuple[first] != tuple[later]) return false;
    }
    return true;
  };
  auto visit = [&](uint32_t i) {
    const SymbolId* tuple = rel->tuple(i);
    if (matches(tuple)) out->emplace_back(tuple, tuple + args.size());
    return false;
  };

  // Use the first-argument index when the first position is bound.
  if (!args.empty() && args[0].is_constant()) {
    rel->ForEachWithFirst(args[0].symbol, visit);
    return;
  }
  for (uint32_t i = 0; i < rel->size; ++i) visit(i);
}

int64_t Database::CountFacts(SymbolId predicate) const {
  RelationRef rel = Find(predicate);
  return rel == nullptr ? 0 : rel->size;
}

int64_t Database::TotalFacts() const {
  int64_t total = 0;
  for (const auto& [pred, rel] : relations_) {
    (void)pred;
    total += rel.size;
  }
  return total;
}

int Database::Arity(SymbolId predicate) const {
  RelationRef rel = Find(predicate);
  return rel == nullptr ? -1 : rel->arity;
}

std::vector<SymbolId> Database::Predicates() const {
  std::vector<SymbolId> out;
  out.reserve(relations_.size());
  for (const auto& [pred, rel] : relations_) {
    (void)rel;
    out.push_back(pred);
  }
  return out;
}

void Database::Clear() {
  relations_.clear();
  ++epoch_;
}

}  // namespace stratlearn

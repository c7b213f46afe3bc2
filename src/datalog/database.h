#ifndef STRATLEARN_DATALOG_DATABASE_H_
#define STRATLEARN_DATALOG_DATABASE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "datalog/atom.h"
#include "util/status.h"

namespace stratlearn {

/// A fact tuple: the constant arguments of one ground atom.
using FactTuple = std::vector<SymbolId>;

/// Scratch storage for one lookup key: on the stack up to kInline
/// symbols, on the heap only beyond that, so probing a relation of
/// ordinary arity allocates nothing.
class TupleKey {
 public:
  explicit TupleKey(size_t size) : size_(size) {
    if (size_ > kInline) heap_.resize(size_);
  }

  std::span<SymbolId> span() {
    return {size_ > kInline ? heap_.data() : inline_, size_};
  }

 private:
  static constexpr size_t kInline = 8;
  size_t size_;
  SymbolId inline_[kInline];
  std::vector<SymbolId> heap_;
};

/// Store of ground atomic facts, grouped by predicate.
///
/// Each predicate's relation keeps its tuples in one flat array (stride
/// = arity, insertion order) with an open-addressing membership table
/// of tuple indexes, hashed over the symbols and kept at most half full,
/// and a second such table indexes the first argument.
/// Supports the operations the query processor needs:
///  * `Contains` — exact ground-atom membership (the "attempted database
///    retrieval" of the paper), O(1) expected;
///  * `Exists` — is there any tuple agreeing with a pattern whose
///    wildcard positions (kInvalidSymbol) match anything; stops at the
///    first match and copies nothing;
///  * `Match` — enumerate tuples compatible with a partially-bound
///    pattern, accelerated by a first-bound-argument index;
///  * `CountFacts` — per-predicate fact counts, which the Smith [Smi89]
///    baseline uses as (questionable) probability surrogates.
///
/// `Contains` and `Exists` also take the handle `Find` returns, so a
/// caller that probes one predicate many times resolves it once. A
/// handle stays valid until `Clear`, an assignment to the database or a
/// move out of it; a predicate that had no facts has no handle, so
/// callers that cache handles re-resolve them whenever `epoch()` changes
/// (it changes when a predicate gains its first fact and on each of
/// those).
class Database {
  struct Relation;

 public:
  /// Opaque handle to one predicate's relation; nullptr for a predicate
  /// without facts.
  using RelationRef = const Relation*;

  Database() = default;
  Database(const Database&) = default;
  Database(Database&& other) noexcept;
  Database& operator=(const Database& other);
  Database& operator=(Database&& other) noexcept;

  /// Inserts a ground fact. Returns InvalidArgument for non-ground atoms
  /// and FailedPrecondition on arity mismatch with earlier facts of the
  /// same predicate. Duplicate inserts are OK (set semantics).
  Status Insert(const Atom& fact);

  /// Convenience: insert predicate + constant arguments directly.
  Status Insert(SymbolId predicate, std::span<const SymbolId> args);
  Status Insert(SymbolId predicate, const FactTuple& args) {
    return Insert(predicate, std::span<const SymbolId>(args));
  }

  /// The relation of `predicate`, or nullptr when it has no facts.
  RelationRef Find(SymbolId predicate) const;

  /// True when the exact ground atom is present.
  bool Contains(const Atom& fact) const;
  bool Contains(SymbolId predicate, std::span<const SymbolId> args) const;
  bool Contains(RelationRef relation, std::span<const SymbolId> args) const;
  bool Contains(SymbolId predicate, const FactTuple& args) const {
    return Contains(predicate, std::span<const SymbolId>(args));
  }

  /// True when some stored tuple agrees with `pattern` on every position
  /// that is not kInvalidSymbol. Wildcard positions are independent (a
  /// repeated variable is Match's business). Without wildcards this is
  /// `Contains`.
  bool Exists(SymbolId predicate, std::span<const SymbolId> pattern) const;
  bool Exists(RelationRef relation, std::span<const SymbolId> pattern) const;

  /// Appends every stored tuple of `pattern.predicate` that agrees with
  /// `pattern` on its constant positions. Variable positions match
  /// anything (repeated variables must bind consistently).
  void Match(const Atom& pattern, std::vector<FactTuple>* out) const;

  /// Number of facts stored for `predicate` (0 if unknown).
  int64_t CountFacts(SymbolId predicate) const;

  /// Total number of facts across predicates.
  int64_t TotalFacts() const;

  /// Arity recorded for `predicate`, or -1 if no facts were inserted.
  int Arity(SymbolId predicate) const;

  /// All predicates that have at least one fact.
  std::vector<SymbolId> Predicates() const;

  /// Changes whenever a handle from `Find` may have become stale or a
  /// nullptr handle may now have a relation.
  uint64_t epoch() const { return epoch_; }

  void Clear();

 private:
  struct Relation {
    int arity = -1;
    uint32_t size = 0;
    // Tuple i occupies symbols [i * arity, (i + 1) * arity).
    std::vector<SymbolId> symbols;
    // Open-addressing tables of tuple indexes (kEmptySlot when free),
    // each a power of two in size and at most half full. `members` finds
    // a whole tuple. `by_first` finds, per first argument, the latest
    // tuple with it; `next_same_first` links each group of tuples with
    // one first argument into a ring in insertion order, so the entry's
    // successor is the group's first tuple. Unlike a map of vectors,
    // finding a group is one probe into a flat array.
    std::vector<uint32_t> members;
    std::vector<uint32_t> by_first;
    std::vector<uint32_t> next_same_first;

    const SymbolId* tuple(uint32_t i) const {
      return symbols.data() + static_cast<size_t>(i) * arity;
    }
    /// The slot of `table` whose tuple starts with `key`, or the free
    /// slot where such a tuple would go.
    size_t FindSlot(const std::vector<uint32_t>& table,
                    std::span<const SymbolId> key) const;
    /// Doubles `table`, re-placing its entries by their first
    /// `prefix` symbols.
    void Grow(std::vector<uint32_t>* table, size_t prefix);
    /// The latest tuple whose first argument is `first`, or kEmptySlot.
    uint32_t LastWithFirst(SymbolId first) const {
      return by_first[FindSlot(by_first, {&first, 1})];
    }
    /// Calls `visit(i)` for each tuple whose first argument is `first`,
    /// in insertion order, until it returns true; true if one did.
    template <typename Visit>
    bool ForEachWithFirst(SymbolId first, Visit visit) const;
  };

  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  std::unordered_map<SymbolId, Relation> relations_;
  uint64_t epoch_ = 0;
};

}  // namespace stratlearn

#endif  // STRATLEARN_DATALOG_DATABASE_H_

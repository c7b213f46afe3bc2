#include "datalog/database.h"

#include <gtest/gtest.h>

#include <utility>

namespace stratlearn {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  Atom MakeAtom(const std::string& pred,
                const std::vector<std::string>& consts) {
    Atom a;
    a.predicate = symbols_.Intern(pred);
    for (const auto& c : consts) {
      a.args.push_back(Term::Constant(symbols_.Intern(c)));
    }
    return a;
  }

  SymbolTable symbols_;
  Database db_;
};

TEST_F(DatabaseTest, InsertAndContains) {
  ASSERT_TRUE(db_.Insert(MakeAtom("prof", {"russ"})).ok());
  EXPECT_TRUE(db_.Contains(MakeAtom("prof", {"russ"})));
  EXPECT_FALSE(db_.Contains(MakeAtom("prof", {"manolis"})));
  EXPECT_FALSE(db_.Contains(MakeAtom("grad", {"russ"})));
}

TEST_F(DatabaseTest, DuplicateInsertIsSetSemantics) {
  ASSERT_TRUE(db_.Insert(MakeAtom("prof", {"russ"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("prof", {"russ"})).ok());
  EXPECT_EQ(db_.CountFacts(symbols_.Intern("prof")), 1);
}

TEST_F(DatabaseTest, NonGroundInsertRejected) {
  Atom open;
  open.predicate = symbols_.Intern("p");
  open.args.push_back(Term::Variable(symbols_.Intern("X")));
  EXPECT_EQ(db_.Insert(open).code(), StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, ArityMismatchRejected) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  EXPECT_EQ(db_.Insert(MakeAtom("p", {"a", "b"})).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DatabaseTest, CountsAndTotals) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"b"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("q", {"a", "b"})).ok());
  EXPECT_EQ(db_.CountFacts(symbols_.Intern("p")), 2);
  EXPECT_EQ(db_.CountFacts(symbols_.Intern("q")), 1);
  EXPECT_EQ(db_.CountFacts(symbols_.Intern("zzz")), 0);
  EXPECT_EQ(db_.TotalFacts(), 3);
  EXPECT_EQ(db_.Arity(symbols_.Intern("q")), 2);
  EXPECT_EQ(db_.Arity(symbols_.Intern("zzz")), -1);
}

TEST_F(DatabaseTest, MatchWithBoundFirstArgument) {
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"russ", "40"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"russ", "41"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"fred", "30"})).ok());
  Atom pattern;
  pattern.predicate = symbols_.Intern("age");
  pattern.args = {Term::Constant(symbols_.Intern("russ")),
                  Term::Variable(symbols_.Intern("X"))};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(DatabaseTest, MatchWithUnboundFirstArgument) {
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"russ", "40"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"fred", "40"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"mark", "30"})).ok());
  Atom pattern;
  pattern.predicate = symbols_.Intern("age");
  pattern.args = {Term::Variable(symbols_.Intern("X")),
                  Term::Constant(symbols_.Intern("40"))};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(DatabaseTest, MatchHonoursRepeatedVariables) {
  ASSERT_TRUE(db_.Insert(MakeAtom("edge", {"a", "a"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("edge", {"a", "b"})).ok());
  Atom pattern;
  pattern.predicate = symbols_.Intern("edge");
  SymbolId x = symbols_.Intern("X");
  pattern.args = {Term::Variable(x), Term::Variable(x)};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], out[0][1]);
}

TEST_F(DatabaseTest, MatchHonoursAVariableInThreePositions) {
  for (const auto& t : std::vector<std::vector<std::string>>{
           {"a", "a", "a"}, {"a", "a", "b"}, {"a", "b", "a"},
           {"b", "a", "a"}, {"b", "b", "b"}, {"a", "c", "a"}}) {
    ASSERT_TRUE(db_.Insert(MakeAtom("t", t)).ok());
  }
  SymbolId x = symbols_.Intern("X");
  Atom pattern;
  pattern.predicate = symbols_.Intern("t");
  pattern.args = {Term::Variable(x), Term::Variable(x), Term::Variable(x)};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], FactTuple(3, symbols_.Intern("a")));
  EXPECT_EQ(out[1], FactTuple(3, symbols_.Intern("b")));

  // The first and last positions tied, the middle one bound.
  pattern.args[1] = Term::Constant(symbols_.Intern("c"));
  out.clear();
  db_.Match(pattern, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], symbols_.Intern("a"));
}

TEST_F(DatabaseTest, ExistsTreatsInvalidSymbolAsWildcard) {
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"russ", "40"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"fred", "30"})).ok());
  SymbolId age = symbols_.Intern("age");
  SymbolId russ = symbols_.Intern("russ");
  SymbolId thirty = symbols_.Intern("30");
  std::vector<SymbolId> pattern = {russ, kInvalidSymbol};
  EXPECT_TRUE(db_.Exists(age, pattern));
  pattern = {kInvalidSymbol, thirty};
  EXPECT_TRUE(db_.Exists(age, pattern));
  pattern = {russ, thirty};
  EXPECT_FALSE(db_.Exists(age, pattern));
  pattern = {kInvalidSymbol, kInvalidSymbol};
  EXPECT_TRUE(db_.Exists(db_.Find(age), pattern));
  pattern = {kInvalidSymbol};
  EXPECT_FALSE(db_.Exists(age, pattern));  // arity mismatch
  EXPECT_EQ(db_.Find(symbols_.Intern("ghost")), nullptr);
  EXPECT_FALSE(db_.Exists(symbols_.Intern("ghost"), pattern));
}

TEST_F(DatabaseTest, EpochMovesOnNewPredicateAndClear) {
  uint64_t e0 = db_.epoch();
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  uint64_t e1 = db_.epoch();
  EXPECT_NE(e1, e0);
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"b"})).ok());
  EXPECT_EQ(db_.epoch(), e1);  // same relation, handle still valid
  db_.Clear();
  EXPECT_NE(db_.epoch(), e1);
}

TEST_F(DatabaseTest, EpochMovesOnAssignmentAndMoveOut) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  Database other = db_;  // a copy: same facts
  EXPECT_TRUE(other.Contains(MakeAtom("p", {"a"})));

  uint64_t e = db_.epoch();
  db_ = other;
  EXPECT_NE(db_.epoch(), e);
  EXPECT_TRUE(db_.Contains(MakeAtom("p", {"a"})));

  e = db_.epoch();
  uint64_t other_epoch = other.epoch();
  db_ = std::move(other);
  EXPECT_NE(db_.epoch(), e);
  EXPECT_NE(other.epoch(), other_epoch);  // its relations moved out
  EXPECT_EQ(other.TotalFacts(), 0);
  EXPECT_TRUE(db_.Contains(MakeAtom("p", {"a"})));

  e = db_.epoch();
  Database moved(std::move(db_));
  EXPECT_NE(db_.epoch(), e);
  EXPECT_EQ(db_.TotalFacts(), 0);
  EXPECT_TRUE(moved.Contains(MakeAtom("p", {"a"})));
}

TEST_F(DatabaseTest, MatchUnknownPredicateIsEmpty) {
  Atom pattern;
  pattern.predicate = symbols_.Intern("ghost");
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(DatabaseTest, MatchArityMismatchIsEmpty) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  Atom pattern;
  pattern.predicate = symbols_.Intern("p");
  pattern.args = {Term::Variable(symbols_.Intern("X")),
                  Term::Variable(symbols_.Intern("Y"))};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(DatabaseTest, PredicatesEnumerates) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("q", {"b"})).ok());
  EXPECT_EQ(db_.Predicates().size(), 2u);
}

TEST_F(DatabaseTest, ClearEmpties) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  db_.Clear();
  EXPECT_EQ(db_.TotalFacts(), 0);
  EXPECT_FALSE(db_.Contains(MakeAtom("p", {"a"})));
}

TEST_F(DatabaseTest, LargeRelationLookupIsCorrect) {
  SymbolId pred = symbols_.Intern("big");
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db_.Insert(pred, {symbols_.Intern("c" + std::to_string(i))})
                    .ok());
  }
  EXPECT_EQ(db_.CountFacts(pred), 5000);
  EXPECT_TRUE(db_.Contains(pred, {symbols_.Intern("c4999")}));
  EXPECT_FALSE(db_.Contains(pred, {symbols_.Intern("c5000")}));
}

}  // namespace
}  // namespace stratlearn

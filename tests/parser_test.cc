// Unit tests for the datalog query parser.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/engine/query_engine.h"
#include "src/query/parser.h"
#include "src/storage/database.h"

namespace dissodb {
namespace {

TEST(ParserTest, SimpleBooleanQuery) {
  auto q = ParseQuery("q() :- R(x), S(x,y)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->IsBoolean());
  EXPECT_EQ(q->num_atoms(), 2);
  EXPECT_EQ(q->num_vars(), 2);
  EXPECT_EQ(q->atom(0).relation, "R");
  EXPECT_EQ(q->atom(1).relation, "S");
}

TEST(ParserTest, HeadVariables) {
  auto q = ParseQuery("q(z) :- R(z,x), S(x,y), T(y)");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->head_vars().size(), 1u);
  EXPECT_EQ(q->var_name(q->head_vars()[0]), "z");
  EXPECT_EQ(MaskCount(q->EVarMask()), 2);
}

TEST(ParserTest, TrailingPeriodAllowed) {
  EXPECT_TRUE(ParseQuery("q() :- R(x).").ok());
}

TEST(ParserTest, WhitespaceInsensitive) {
  auto q = ParseQuery("  q ( x )  :-  R ( x , y ) ,  S ( y )  ");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_atoms(), 2);
}

TEST(ParserTest, IntegerConstants) {
  auto q = ParseQuery("q() :- R(x, 42), S(-3)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->atom(0).terms[1].is_var);
  EXPECT_EQ(q->atom(0).terms[1].constant, Value::Int64(42));
  EXPECT_EQ(q->atom(1).terms[0].constant, Value::Int64(-3));
}

TEST(ParserTest, DoubleConstants) {
  auto q = ParseQuery("q() :- R(1.5)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atom(0).terms[0].constant.type(), ValueType::kDouble);
}

TEST(ParserTest, SignedAndExponentLiterals) {
  auto q = ParseQuery("q() :- R(+7, 25e2, -1E2)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->atom(0).terms[0].constant, Value::Int64(7));
  EXPECT_EQ(q->atom(0).terms[1].constant, Value::Double(2500.0));
  EXPECT_EQ(q->atom(0).terms[2].constant, Value::Double(-100.0));
}

TEST(ParserTest, OutOfRangeIntegerIsInvalidArgument) {
  auto q = ParseQuery("q() :- R(99999999999999999999)");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(ParseQuery("q() :- R(-9223372036854775808)").ok());
  EXPECT_FALSE(ParseQuery("q() :- R(9223372036854775808)").ok());
}

TEST(ParserTest, OutOfRangeDoubleIsInvalidArgument) {
  auto q = ParseQuery("q() :- R(1e999)");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), Status::Code::kInvalidArgument);
}

TEST(ParserTest, MalformedNumbersAreInvalidArgument) {
  for (const char* text : {"q() :- R(-)", "q() :- R(+)", "q() :- R(1.2.3)",
                           "q() :- R(1e)", "q() :- R(-e5)"}) {
    auto q = ParseQuery(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), Status::Code::kInvalidArgument) << text;
  }
}

TEST(ParserTest, SixtyFifthVariableIsInvalidArgument) {
  // 64 distinct variables fill the VarMask; the 65th must be rejected, in
  // the body or in the head, and a repeated name never counts twice.
  auto body = [](int vars) {
    std::string text = "q() :- ";
    for (int i = 0; i < vars; ++i) {
      if (i > 0) text += ", ";
      text += "R" + std::to_string(i) + "(v" + std::to_string(i) + ", v0)";
    }
    return text;
  };
  auto q64 = ParseQuery(body(64));
  ASSERT_TRUE(q64.ok()) << q64.status().ToString();
  EXPECT_EQ(q64->num_vars(), 64);
  auto q65 = ParseQuery(body(65));
  ASSERT_FALSE(q65.ok());
  EXPECT_EQ(q65.status().code(), Status::Code::kInvalidArgument);

  std::string head = "q(";
  for (int i = 0; i < 65; ++i) {
    if (i > 0) head += ",";
    head += "h" + std::to_string(i);
  }
  auto qh = ParseQuery(head + ") :- R(h0)");
  ASSERT_FALSE(qh.ok());
  EXPECT_EQ(qh.status().code(), Status::Code::kInvalidArgument);
}

/// q() :- R0(x), R1(x), ..., R{atoms-1}(x).
std::string StarOfAtoms(int atoms) {
  std::string text = "q() :- ";
  for (int i = 0; i < atoms; ++i) {
    if (i > 0) text += ", ";
    text += "R" + std::to_string(i) + "(x)";
  }
  return text;
}

TEST(ParserTest, SixtyFifthAtomIsInvalidArgument) {
  // Atom sets are 64-bit masks: the 65th atom must be rejected with a
  // Status, from the parser and from programmatic AddAtom alike.
  auto q65 = ParseQuery(StarOfAtoms(kMaxQueryAtoms + 1));
  ASSERT_FALSE(q65.ok());
  EXPECT_EQ(q65.status().code(), Status::Code::kInvalidArgument);

  auto q64 = ParseQuery(StarOfAtoms(kMaxQueryAtoms));
  ASSERT_TRUE(q64.ok()) << q64.status().ToString();
  EXPECT_EQ(q64->num_atoms(), kMaxQueryAtoms);
  ConjunctiveQuery q = *q64;
  Atom extra;
  extra.relation = "Extra";
  extra.terms.push_back(Term::Var(0));
  Status st = q.AddAtom(std::move(extra));
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(q.num_atoms(), kMaxQueryAtoms);
}

TEST(ParserTest, SixtyFourAtomsPrepareAndExecute) {
  // The largest query still compiles and runs: 64 atoms sharing x form a
  // hierarchical query whose exact score is prod_i 0.9.
  Database db;
  for (int i = 0; i < kMaxQueryAtoms; ++i) {
    Table t(RelationSchema::AllInt64("R" + std::to_string(i), 1));
    t.AddRow({Value::Int64(1)}, 0.9);
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  }
  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(StarOfAtoms(kMaxQueryAtoms));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared->exact());
  auto r = engine.Execute(*prepared);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->answers.size(), 1u);
  EXPECT_NEAR(r->answers[0].score, std::pow(0.9, kMaxQueryAtoms), 1e-12);

  auto too_big = engine.Prepare(StarOfAtoms(kMaxQueryAtoms + 1));
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), Status::Code::kInvalidArgument);
}

TEST(ParserTest, StringConstantsNeedPool) {
  EXPECT_FALSE(ParseQuery("q() :- R('a')").ok());
  StringPool pool;
  auto q = ParseQuery("q() :- R('a', x)", &pool);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(pool.Get(q->atom(0).terms[0].constant.AsStringCode()), "a");
}

TEST(ParserTest, RepeatedVariableInAtom) {
  auto q = ParseQuery("q() :- R(x,x)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_vars(), 1);
  EXPECT_EQ(MaskCount(q->AtomMask(0)), 1);
}

TEST(ParserTest, SelfJoinRejected) {
  auto q = ParseQuery("q() :- R(x), R(y)");
  EXPECT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("self-join"), std::string::npos);
}

TEST(ParserTest, HeadVariableMustOccurInBody) {
  EXPECT_FALSE(ParseQuery("q(z) :- R(x)").ok());
}

TEST(ParserTest, ZeroArityAtom) {
  auto q = ParseQuery("q() :- R()");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atom(0).arity(), 0);
}

TEST(ParserTest, MissingBodyRejected) {
  EXPECT_FALSE(ParseQuery("q(x)").ok());
  EXPECT_FALSE(ParseQuery("q(x) :-").ok());
}

TEST(ParserTest, BadHeadRejected) {
  EXPECT_FALSE(ParseQuery("(x) :- R(x)").ok());
  EXPECT_FALSE(ParseQuery("q(X) :- R(X)").ok());  // uppercase head var
  EXPECT_FALSE(ParseQuery("q(3) :- R(x)").ok());  // constant in head
}

TEST(ParserTest, UnterminatedAtomRejected) {
  EXPECT_FALSE(ParseQuery("q() :- R(x").ok());
  EXPECT_FALSE(ParseQuery("q() :- R(x,)").ok());
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseQuery("q() :- R(x) garbage").ok());
}

TEST(ParserTest, UppercaseTermsAreNotVariables) {
  EXPECT_FALSE(ParseQuery("q() :- R(Foo)").ok());
}

TEST(ParserTest, UnterminatedStringRejected) {
  StringPool pool;
  EXPECT_FALSE(ParseQuery("q() :- R('abc)", &pool).ok());
}

TEST(ParserTest, SharedVariablesGetSameId) {
  auto q = ParseQuery("q() :- R(x,y), S(y,z)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_vars(), 3);
  EXPECT_NE(q->AtomMask(0) & q->AtomMask(1), 0u);
}

TEST(ParserTest, ToStringRoundTripsStructure) {
  auto q = ParseQuery("q(z) :- R(z,x), S(x,y)");
  ASSERT_TRUE(q.ok());
  std::string s = q->ToString();
  auto q2 = ParseQuery(s);
  ASSERT_TRUE(q2.ok()) << s;
  EXPECT_EQ(q2->num_atoms(), q->num_atoms());
  EXPECT_EQ(q2->head_vars().size(), q->head_vars().size());
}

TEST(ParserTest, PaperIntroQueries) {
  // q1(z) :- R(z,x), S(x,y), K(x,y)  and  q2(z) :- R(z,x), S(x,y), T(y)
  auto q1 = ParseQuery("q1(z) :- R(z,x), S(x,y), K(x,y)");
  auto q2 = ParseQuery("q2(z) :- R(z,x), S(x,y), T(y)");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q1->num_atoms(), 3);
  EXPECT_EQ(q2->num_atoms(), 3);
}

}  // namespace
}  // namespace dissodb

// Expression binding and evaluation: three-valued logic, vectorized
// kernels, agreement with the reference interpreter, and type errors.
#include <gtest/gtest.h>

#include "expr/evaluator.h"
#include "expr/expr_builder.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using namespace eb;  // NOLINT

/// A two-column chunk: a(int64) = [1, 2, NULL, 4], b(float64) = [.5, NULL,
/// 2.5, 4.0], s(string) = ["x","y","z",NULL].
Chunk TestChunk() {
  Chunk c = Chunk::Empty({DataType::kInt64, DataType::kFloat64,
                          DataType::kString});
  c.columns[0].AppendInt(1);
  c.columns[0].AppendInt(2);
  c.columns[0].AppendNull();
  c.columns[0].AppendInt(4);
  c.columns[1].AppendDouble(0.5);
  c.columns[1].AppendNull();
  c.columns[1].AppendDouble(2.5);
  c.columns[1].AppendDouble(4.0);
  c.columns[2].AppendString("x");
  c.columns[2].AppendString("y");
  c.columns[2].AppendString("z");
  c.columns[2].AppendNull();
  return c;
}

Schema TestSchema() {
  return Schema({{10, "a", DataType::kInt64},
                 {11, "b", DataType::kFloat64},
                 {12, "s", DataType::kString}});
}

Column Eval(const ExprPtr& e) {
  auto bound = BindExpr(e, TestSchema());
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound->EvalAll(TestChunk());
}

ExprPtr A() { return Col(10, DataType::kInt64); }
ExprPtr B() { return Col(11, DataType::kFloat64); }
ExprPtr S() { return Col(12, DataType::kString); }

TEST(EvalTest, ColumnRefAndLiteral) {
  Column a = Eval(A());
  EXPECT_EQ(a.GetValue(0), Value::Int64(1));
  EXPECT_TRUE(a.IsNull(2));
  Column lit = Eval(Int(9));
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(lit.IntAt(i), 9);
}

TEST(EvalTest, BindingFailsOnUnknownColumn) {
  auto bound = BindExpr(Col(99, DataType::kInt64), TestSchema());
  EXPECT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kPlanError);
}

TEST(EvalTest, ComparisonsWithNulls) {
  Column lt = Eval(Lt(A(), Int(3)));
  EXPECT_TRUE(lt.BoolAt(0));
  EXPECT_TRUE(lt.BoolAt(1));
  EXPECT_TRUE(lt.IsNull(2));  // NULL < 3 => NULL
  EXPECT_FALSE(lt.BoolAt(3));
}

TEST(EvalTest, MixedNumericComparison) {
  // a = b compares int64 against float64: 4 == 4.0.
  Column eq = Eval(Eq(A(), B()));
  EXPECT_FALSE(eq.BoolAt(0));
  EXPECT_TRUE(eq.IsNull(1));
  EXPECT_TRUE(eq.IsNull(2));
  EXPECT_TRUE(eq.BoolAt(3));
}

TEST(EvalTest, StringComparison) {
  Column ge = Eval(Ge(S(), Str("y")));
  EXPECT_FALSE(ge.BoolAt(0));
  EXPECT_TRUE(ge.BoolAt(1));
  EXPECT_TRUE(ge.BoolAt(2));
  EXPECT_TRUE(ge.IsNull(3));
}

TEST(EvalTest, Arithmetic) {
  Column add = Eval(Add(A(), Int(10)));
  EXPECT_EQ(add.IntAt(0), 11);
  EXPECT_TRUE(add.IsNull(2));
  Column mul = Eval(Mul(A(), B()));  // promotes to float64
  EXPECT_DOUBLE_EQ(mul.DoubleAt(0), 0.5);
  EXPECT_DOUBLE_EQ(mul.DoubleAt(3), 16.0);
  // Division always yields float64 and NULL on zero divisor.
  Column div = Eval(Div(A(), Sub(A(), A())));
  EXPECT_TRUE(div.IsNull(0));
  Column div2 = Eval(Div(Int(7), Int(2)));
  EXPECT_DOUBLE_EQ(div2.DoubleAt(0), 3.5);
}

TEST(EvalTest, KleeneAndOr) {
  ExprPtr null_bool = Lt(A(), Int(0));  // NULL on row 2
  // AND: FALSE dominates NULL.
  Column a1 = Eval(And(False(), null_bool));
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(a1.IsValid(i));
    EXPECT_FALSE(a1.BoolAt(i));
  }
  // AND: TRUE AND NULL => NULL.
  Column a2 = Eval(And(True(), null_bool));
  EXPECT_TRUE(a2.IsNull(2));
  EXPECT_FALSE(a2.BoolAt(0));
  // OR: TRUE dominates NULL.
  Column o1 = Eval(Or(True(), null_bool));
  EXPECT_TRUE(o1.BoolAt(2));
  // OR: FALSE OR NULL => NULL.
  Column o2 = Eval(Or(False(), null_bool));
  EXPECT_TRUE(o2.IsNull(2));
}

TEST(EvalTest, NotAndIsNull) {
  Column n = Eval(Not(Lt(A(), Int(2))));
  EXPECT_FALSE(n.BoolAt(0));
  EXPECT_TRUE(n.IsNull(2));
  Column is_null = Eval(IsNull(A()));
  EXPECT_FALSE(is_null.BoolAt(0));
  EXPECT_TRUE(is_null.BoolAt(2));
  Column is_not_null = Eval(IsNotNull(A()));
  EXPECT_TRUE(is_not_null.BoolAt(0));
  EXPECT_FALSE(is_not_null.BoolAt(2));
}

TEST(EvalTest, CaseSelectsFirstTrueArm) {
  ExprPtr e = Case({{Lt(A(), Int(2)), Str("small")},
                    {Lt(A(), Int(3)), Str("mid")}},
                   Str("big"));
  Column c = Eval(e);
  EXPECT_EQ(c.StringAt(0), "small");
  EXPECT_EQ(c.StringAt(1), "mid");
  EXPECT_EQ(c.StringAt(2), "big");  // NULL when => not matched
  EXPECT_EQ(c.StringAt(3), "big");
}

TEST(EvalTest, InListThreeValued) {
  Column in = Eval(In(A(), {Int(1), Int(4)}));
  EXPECT_TRUE(in.BoolAt(0));
  EXPECT_FALSE(in.BoolAt(1));
  EXPECT_TRUE(in.IsNull(2));  // NULL operand
  EXPECT_TRUE(in.BoolAt(3));
  // Non-matching with a NULL item => NULL.
  Column in2 = Eval(In(A(), {Int(99), NullOf(DataType::kInt64)}));
  EXPECT_TRUE(in2.IsNull(0));
}

TEST(EvalTest, BetweenBuilder) {
  Column b = Eval(Between(A(), Int(2), Int(4)));
  EXPECT_FALSE(b.BoolAt(0));
  EXPECT_TRUE(b.BoolAt(1));
  EXPECT_TRUE(b.IsNull(2));
  EXPECT_TRUE(b.BoolAt(3));
}

TEST(EvalTest, EvalFilterTreatsNullAsFail) {
  auto bound = BindExpr(Lt(A(), Int(3)), TestSchema());
  ASSERT_TRUE(bound.ok());
  // Rows 0 and 1 are TRUE; row 2 is NULL (fails the filter); row 3 is FALSE.
  SelVector keep = bound->EvalFilter(TestChunk());
  EXPECT_EQ(keep.indexes(), (std::vector<uint32_t>{0, 1}));
}

TEST(EvalTest, RowAndColumnPathsAgree) {
  // The reference evaluator's row-at-a-time interpreter and the vectorized
  // kernels must agree on every row.
  std::vector<ExprPtr> exprs = {
      And(Lt(A(), Int(4)), Gt(B(), Dbl(0.4))),
      Or(IsNull(A()), Eq(S(), Str("z"))),
      CaseWhen(Gt(A(), Int(1)), Add(A(), Int(1)), Int(0)),
      In(S(), {Str("x"), Str("nope")}),
  };
  Chunk chunk = TestChunk();
  for (const ExprPtr& e : exprs) {
    auto bound = BindExpr(e, TestSchema());
    ASSERT_TRUE(bound.ok());
    reference::RowExpr interpreted =
        testutil::Unwrap(reference::RowExpr::Resolve(e, TestSchema()));
    Column vec = bound->EvalAll(chunk);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      EXPECT_EQ(vec.GetValue(r), interpreted.Eval(testutil::RowAt(chunk, r)))
          << e->ToString() << " row " << r;
    }
  }
}

}  // namespace
}  // namespace fusiondb

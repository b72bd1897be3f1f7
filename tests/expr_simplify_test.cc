// Simplification, absorption, structural identity
// and column remapping — the expression machinery the fusion rules depend on.
#include <gtest/gtest.h>

#include <unordered_set>

#include "expr/column_map.h"
#include "expr/expr_builder.h"
#include "expr/simplifier.h"

namespace fusiondb {
namespace {

using namespace eb;  // NOLINT

ExprPtr C(ColumnId id) { return Col(id, DataType::kInt64); }

TEST(SimplifyTest, ConstantFolding) {
  EXPECT_TRUE(Simplify(Gt(Int(3), Int(2)))->IsLiteralBool(true));
  EXPECT_TRUE(Simplify(Eq(Int(3), Int(2)))->IsLiteralBool(false));
  ExprPtr sum = Simplify(Add(Int(3), Int(4)));
  ASSERT_EQ(sum->kind(), ExprKind::kLiteral);
  EXPECT_EQ(sum->literal(), Value::Int64(7));
  EXPECT_TRUE(Simplify(Not(False()))->IsLiteralBool(true));
  // NULL propagation folds too.
  EXPECT_TRUE(Simplify(Gt(NullOf(DataType::kInt64), Int(1)))->IsLiteralNull());
  EXPECT_TRUE(Simplify(IsNull(NullOf(DataType::kInt64)))->IsLiteralBool(true));
}

TEST(SimplifyTest, BooleanIdentities) {
  ExprPtr p = Gt(C(1), Int(5));
  EXPECT_TRUE(ExprEquivalent(Simplify(And(p, True())), p));
  EXPECT_TRUE(Simplify(And(p, False()))->IsLiteralBool(false));
  EXPECT_TRUE(Simplify(Or(p, True()))->IsLiteralBool(true));
  EXPECT_TRUE(ExprEquivalent(Simplify(Or(p, False())), p));
  EXPECT_TRUE(ExprEquivalent(Simplify(Not(Not(p))), p));
}

TEST(SimplifyTest, FlattensAndDedupes) {
  ExprPtr p = Gt(C(1), Int(5));
  ExprPtr q = Lt(C(2), Int(9));
  ExprPtr nested = And(And(p, q), And(p, q));
  ExprPtr s = Simplify(nested);
  ASSERT_EQ(s->kind(), ExprKind::kAnd);
  EXPECT_EQ(s->children().size(), 2u);
}

TEST(SimplifyTest, Idempotent) {
  ExprPtr e = And(Gt(C(1), Int(5)), Or(Lt(C(2), Int(3)), Eq(C(3), Int(0))));
  ExprPtr once = Simplify(e);
  ExprPtr twice = Simplify(once);
  EXPECT_EQ(once, twice) << "Simplify must reach a fixpoint in one pass";
}

/// Rebuilds every node of `e`, so no node carries Simplify's memo mark.
ExprPtr FreshCopy(const ExprPtr& e) {
  std::vector<ExprPtr> cs;
  for (const ExprPtr& c : e->children()) cs.push_back(FreshCopy(c));
  switch (e->kind()) {
    case ExprKind::kColumnRef:
      return Expr::MakeColumnRef(e->column_id(), e->type());
    case ExprKind::kLiteral:
      return Expr::MakeLiteral(e->literal());
    case ExprKind::kCompare:
      return Expr::MakeCompare(e->compare_op(), cs[0], cs[1]);
    case ExprKind::kArith:
      return Expr::MakeArith(e->arith_op(), cs[0], cs[1], e->type());
    case ExprKind::kAnd:
      return Expr::MakeAnd(cs);
    case ExprKind::kOr:
      return Expr::MakeOr(cs);
    case ExprKind::kNot:
      return Expr::MakeNot(cs[0]);
    case ExprKind::kIsNull:
      return Expr::MakeIsNull(cs[0]);
    case ExprKind::kCase:
      return Expr::MakeCase(cs, e->type());
    case ExprKind::kInList:
      return Expr::MakeInList(cs);
  }
  return e;
}

// Simplify marks its results as fixed points and returns marked nodes
// unwalked. That is only plan-neutral if re-walking a result really returns
// the very same node, which an unmarked copy checks.
TEST(SimplifyTest, ResultsAreFixedPointsWhenRewalked) {
  ExprPtr b1 = Between(C(1), Int(1), Int(20));
  ExprPtr b2 = Between(C(1), Int(21), Int(40));
  ExprPtr b3 = Between(C(1), Int(41), Int(60));
  ExprPtr null_bool = NullOf(DataType::kBool);
  const std::vector<ExprPtr> inputs = {
      And({b1, Or(b1, b2), Or({b1, b2, b3})}),
      Or({b1, And(b1, b2), b3, b1}),
      And({Gt(C(1), Int(5)), null_bool, And(Lt(C(2), Int(3)), True())}),
      Or({null_bool, False(), Eq(C(3), Int(0))}),
      Not(Not(And(Gt(C(1), Int(5)), Gt(C(1), Int(5))))),
      CaseWhen(Gt(C(1), Int(5)), Int(1), Int(2)),
      Expr::MakeCase({False(), Int(1), Gt(C(1), Int(2)), Int(3), True(),
                      Int(4), Int(5)},
                     DataType::kInt64),
      In(Add(C(1), Int(1)), {Int(3), Int(1)}),
      And(Gt(Add(Int(1), Int(2)), C(2)), Or(IsNull(C(3)), Not(True()))),
  };
  for (const ExprPtr& e : inputs) {
    ExprPtr once = Simplify(FreshCopy(e));
    ExprPtr copy = FreshCopy(once);
    EXPECT_EQ(Simplify(copy), copy) << once->ToString();
  }
}

// MakeConjunction short-cuts `m AND (... OR m OR ...)` to `m`. The result
// must read exactly like the general path's, which unmarked copies (no
// memo, so no shortcut) produce.
TEST(SimplifyTest, ConjunctionWithListingDisjunctionMatchesGeneralPath) {
  ExprPtr b1 = Simplify(Between(C(1), Int(1), Int(20)));
  ExprPtr b2 = Simplify(Between(C(1), Int(21), Int(40)));
  ExprPtr gt = Simplify(Gt(C(2), Int(7)));
  ExprPtr with_null = Simplify(And(Gt(C(3), Int(1)), NullOf(DataType::kBool)));
  const std::vector<std::pair<ExprPtr, ExprPtr>> cases = {
      {b1, Simplify(Or(b1, b2))},         // taken: b1 is a branch
      {Simplify(Or(gt, b2)), gt},         // taken, mirrored operands
      {b2, Simplify(Or({b1, b2, gt}))},   // taken: branch in the middle
      {b1, Simplify(Or(b2, gt))},         // not taken: b1 is not listed
      {with_null, Simplify(Or(with_null, b2))},  // not taken: NULL conjunct
  };
  for (const auto& [m, listing] : cases) {
    ExprPtr fast = MakeConjunction(m, listing);
    ExprPtr general = MakeConjunction(FreshCopy(m), FreshCopy(listing));
    EXPECT_EQ(fast->ToString(), general->ToString());
    EXPECT_TRUE(ExprEquivalent(fast, general)) << fast->ToString();
  }
  EXPECT_EQ(MakeConjunction(b1, Simplify(Or(b1, b2))), b1);
}

TEST(SimplifyTest, AbsorptionCollapsesFusionMaskChains) {
  // b1 AND (b1 OR b2) AND (b1 OR b2 OR b3)  ==>  b1, even when b1 is itself
  // a conjunction that the flattener splits apart (the exact shape repeated
  // pairwise aggregate fusion produces for Q09's masks).
  ExprPtr b1 = Between(C(1), Int(1), Int(20));
  ExprPtr b2 = Between(C(1), Int(21), Int(40));
  ExprPtr b3 = Between(C(1), Int(41), Int(60));
  ExprPtr chain = And({b1, Or(b1, b2), Or({b1, b2, b3})});
  ExprPtr s = Simplify(chain);
  EXPECT_TRUE(ExprEquivalent(s, Simplify(b1)))
      << "got: " << s->ToString();
}

TEST(SimplifyTest, DualAbsorptionUnderOr) {
  ExprPtr p = Gt(C(1), Int(5));
  ExprPtr q = Lt(C(2), Int(3));
  // p OR (p AND q) => p.
  ExprPtr s = Simplify(Or(p, And(p, q)));
  EXPECT_TRUE(ExprEquivalent(s, p)) << s->ToString();
}

TEST(SimplifyTest, CaseArmPruning) {
  ExprPtr e = Case({{False(), Int(1)}, {True(), Int(2)}}, Int(3));
  ExprPtr s = Simplify(e);
  ASSERT_EQ(s->kind(), ExprKind::kLiteral);
  EXPECT_EQ(s->literal(), Value::Int64(2));
}

TEST(StructuralIdentityTest, CommutativityAndOrientation) {
  ExprPtr a = C(1);
  ExprPtr b = C(2);
  EXPECT_TRUE(ExprEquivalent(Eq(a, b), Eq(b, a)));
  EXPECT_TRUE(ExprEquivalent(Add(a, b), Add(b, a)));
  EXPECT_TRUE(ExprEquivalent(Lt(a, b), Gt(b, a)));
  EXPECT_FALSE(ExprEquivalent(Lt(a, b), Lt(b, a)));
  EXPECT_TRUE(ExprEquivalent(And(Gt(a, Int(1)), Lt(b, Int(2))),
                             And(Lt(b, Int(2)), Gt(a, Int(1)))));
  EXPECT_FALSE(ExprEquivalent(Sub(a, b), Sub(b, a)));
}

TEST(StructuralIdentityTest, EquivalentExpressionsHashEqually) {
  ExprPtr a = C(1);
  ExprPtr b = C(2);
  EXPECT_EQ(Lt(a, b)->hash(), Gt(b, a)->hash());
  EXPECT_EQ(Mul(a, b)->hash(), Mul(b, a)->hash());
  // AND/OR hash their operand *set*: order and duplicates do not count.
  ExprPtr p = Gt(a, Int(1));
  ExprPtr q = Lt(b, Int(2));
  EXPECT_EQ(And({p, q, p})->hash(), And(q, p)->hash());
  EXPECT_TRUE(ExprEquivalent(And({p, q, p}), And(q, p)));
  EXPECT_FALSE(ExprEquivalent(And(p, q), Or(p, q)));
  // IN items are unordered.
  ExprPtr in1 = In(a, {Int(1), Int(2), Int(3)});
  ExprPtr in2 = In(a, {Int(3), Int(1), Int(2)});
  EXPECT_EQ(in1->hash(), in2->hash());
  EXPECT_TRUE(ExprEquivalent(in1, in2));
  EXPECT_FALSE(ExprEquivalent(in1, In(a, {Int(1), Int(2), Int(4)})));
  // Operands with equal hashes: either orientation is the canonical one,
  // so x < x' matches x' > x read with its operands swapped.
  ExprPtr a2 = C(1);
  EXPECT_EQ(Lt(a, a2)->hash(), Gt(a, a2)->hash());
  EXPECT_TRUE(ExprEquivalent(Lt(a, a2), Gt(a, a2)));
  EXPECT_FALSE(ExprEquivalent(Lt(a, a2), Le(a, a2)));
  // Types and payloads are part of identity.
  EXPECT_FALSE(ExprEquivalent(Int(1), Dbl(1.0)));
  EXPECT_FALSE(ExprEquivalent(Col(1, DataType::kInt64),
                              Col(1, DataType::kFloat64)));
  EXPECT_FALSE(ExprEquivalent(Str("ab"), Str("ba")));
  EXPECT_TRUE(ExprEquivalent(Str("ab"), Str("ab")));
  EXPECT_FALSE(ExprEquivalent(NullOf(DataType::kInt64), Int(0)));
  EXPECT_TRUE(ExprEquivalent(nullptr, nullptr));
  EXPECT_FALSE(ExprEquivalent(p, nullptr));
}

TEST(StructuralIdentityTest, FunctorsKeyUnorderedContainers) {
  std::unordered_set<ExprPtr, ExprHash, ExprEq> set;
  set.insert(Lt(C(1), C(2)));
  set.insert(Gt(C(2), C(1)));  // equivalent: not a new key
  set.insert(And(Gt(C(1), Int(1)), Lt(C(2), Int(2))));
  set.insert(And(Lt(C(2), Int(2)), Gt(C(1), Int(1))));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.count(Lt(C(1), C(2))), 1u);
  EXPECT_EQ(set.count(Lt(C(2), C(1))), 0u);
}

// Doubles that agree to 6 significant digits (what Value::ToString prints)
// are still distinct literals: identity is the exact value.
TEST(StructuralIdentityTest, DoubleLiteralsCompareExactly) {
  ExprPtr x = Col(1, DataType::kFloat64);
  ExprPtr gt1 = Gt(x, Dbl(1.0));
  ExprPtr gt1e7 = Gt(x, Dbl(1.0000001));
  EXPECT_FALSE(ExprEquivalent(gt1, gt1e7));
  EXPECT_NE(gt1->hash(), gt1e7->hash());
  EXPECT_TRUE(ExprEquivalent(gt1, Gt(x, Dbl(1.0))));

  ExprPtr both = Simplify(And(gt1, gt1e7));
  ASSERT_EQ(both->kind(), ExprKind::kAnd) << both->ToString();
  EXPECT_EQ(both->children().size(), 2u);
  ExprPtr either = Simplify(Or(gt1, gt1e7));
  ASSERT_EQ(either->kind(), ExprKind::kOr) << either->ToString();
  EXPECT_EQ(either->children().size(), 2u);
  // Absorption must not treat the near-equal literals as one either.
  ExprPtr absorbed = Simplify(And(gt1, Or(gt1e7, Lt(x, Dbl(0.0)))));
  EXPECT_EQ(absorbed->kind(), ExprKind::kAnd) << absorbed->ToString();
}

TEST(ColumnMapTest, RemapsReferences) {
  ColumnMap m{{2, 7}};
  ExprPtr e = And(Gt(C(2), Int(1)), Lt(C(3), Int(5)));
  ExprPtr mapped = ApplyMap(m, e);
  std::vector<ColumnId> cols;
  CollectColumns(mapped, &cols);
  std::sort(cols.begin(), cols.end());
  EXPECT_EQ(cols, (std::vector<ColumnId>{3, 7}));
  // Unmapped expressions are shared, not copied.
  ExprPtr untouched = Lt(C(3), Int(5));
  EXPECT_EQ(ApplyMap(m, untouched), untouched);
  EXPECT_EQ(ApplyMap(m, ColumnId{2}), 7);
  EXPECT_EQ(ApplyMap(m, ColumnId{9}), 9);
}

TEST(ColumnMapTest, MergeDetectsConflicts) {
  ColumnMap base{{1, 2}};
  EXPECT_TRUE(MergeMaps(&base, {{3, 4}}));
  EXPECT_TRUE(MergeMaps(&base, {{1, 2}}));
  EXPECT_FALSE(MergeMaps(&base, {{1, 9}}));
}

TEST(ConjunctTest, SplitAndCombine) {
  ExprPtr p = Gt(C(1), Int(5));
  ExprPtr q = Lt(C(2), Int(3));
  std::vector<ExprPtr> parts;
  SplitConjuncts(And(And(p, True()), q), &parts);
  EXPECT_EQ(parts.size(), 2u);
  EXPECT_TRUE(IsTrueLiteral(CombineConjuncts({})));
  EXPECT_EQ(CombineConjuncts({p}), p);
  EXPECT_TRUE(ExprEquivalent(MakeConjunction(p, q), And(p, q)));
  EXPECT_TRUE(ExprEquivalent(MakeConjunction(p, True()), p));
}

}  // namespace
}  // namespace fusiondb

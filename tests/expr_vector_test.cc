// Differential testing of the vectorized expression kernels against the
// reference evaluator's row-at-a-time interpreter (tests/reference_eval.h),
// which shares no code with them. Randomized expression trees over
// randomized NULL-bearing columns must agree cell-for-cell on every public
// entry point (EvalAll, EvalSel, EvalFilter, NarrowFilter), and three-valued
// AND/OR/NOT edge cases are pinned explicitly.
#include <functional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "expr/evaluator.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::RowAt;
using testutil::Unwrap;

// ---------------------------------------------------------------------------
// Randomized differential fuzz: vectorized paths vs the reference interpreter.
// ---------------------------------------------------------------------------

// Columns: i0,i1 int64; d0,d1 float64; s0 string. Integer values stay small
// so the kernels' native int64 comparisons and the interpreter's agree even
// where one side promotes to double.
Schema FuzzSchema() {
  return Schema({{1, "i0", DataType::kInt64},
                 {2, "i1", DataType::kInt64},
                 {3, "d0", DataType::kFloat64},
                 {4, "d1", DataType::kFloat64},
                 {5, "s0", DataType::kString}});
}

class ExprFuzzer {
 public:
  explicit ExprFuzzer(uint32_t seed) : rng_(seed) {}

  Chunk RandomChunk(size_t rows) {
    // Physical column order must match FuzzSchema: i0, i1, d0, d1, s0.
    Chunk c = Chunk::Empty({DataType::kInt64, DataType::kInt64,
                            DataType::kFloat64, DataType::kFloat64,
                            DataType::kString});
    static const char* kStrings[] = {"a", "b", "c", "mm", "zz"};
    for (size_t r = 0; r < rows; ++r) {
      for (int col = 0; col < 2; ++col) {
        if (Chance(5)) {
          c.columns[col].AppendNull();
        } else {
          c.columns[col].AppendInt(Pick(201) - 100);
        }
      }
      for (int col = 2; col < 4; ++col) {
        if (Chance(5)) {
          c.columns[col].AppendNull();
        } else {
          c.columns[col].AppendDouble((Pick(401) - 200) / 4.0);
        }
      }
      if (Chance(5)) {
        c.columns[4].AppendNull();
      } else {
        c.columns[4].AppendString(kStrings[Pick(5)]);
      }
    }
    return c;
  }

  /// A random boolean-typed expression of bounded depth.
  ExprPtr RandomPredicate(int depth) {
    if (depth <= 0) return BoolLeaf();
    switch (Pick(8)) {
      case 0:
        return Compare(NumericExpr(depth - 1), NumericExpr(depth - 1));
      case 1:
        return Compare(StringLeaf(), StringLeaf());
      case 2:
        return eb::Between(NumericExpr(depth - 1), NumericExpr(0),
                           NumericExpr(0));
      case 3: {
        std::vector<ExprPtr> items;
        for (int i = 0, n = 1 + Pick(3); i < n; ++i) {
          items.push_back(eb::Int(Pick(201) - 100));
        }
        return eb::In(NumericExpr(depth - 1), std::move(items));
      }
      case 4:
        return Chance(2) ? eb::IsNull(NumericExpr(depth - 1))
                         : eb::IsNotNull(StringLeaf());
      case 5:
        return eb::Not(RandomPredicate(depth - 1));
      case 6: {
        std::vector<ExprPtr> kids;
        for (int i = 0, n = 2 + Pick(2); i < n; ++i) {
          kids.push_back(RandomPredicate(depth - 1));
        }
        return Chance(2) ? eb::And(std::move(kids)) : eb::Or(std::move(kids));
      }
      default:
        return eb::CaseWhen(RandomPredicate(depth - 1),
                            RandomPredicate(depth - 1), BoolLeaf());
    }
  }

  /// A nested AND/OR tree over overlapping range comparisons on
  /// NULL-bearing columns, with NULL-literal leaves and repeated leaves:
  /// the shapes OR narrowing has to get right.
  ExprPtr RandomAndOr(int depth) {
    if (depth <= 0 || Chance(4)) return RangeLeaf();
    std::vector<ExprPtr> kids;
    for (int i = 0, n = 2 + Pick(3); i < n; ++i) {
      kids.push_back(RandomAndOr(depth - 1));
    }
    return Chance(3) ? eb::And(std::move(kids)) : eb::Or(std::move(kids));
  }

 private:
  bool Chance(int one_in) { return Pick(one_in) == 0; }
  int Pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }

  ExprPtr BoolLeaf() {
    switch (Pick(4)) {
      case 0:
        return eb::True();
      case 1:
        return eb::False();
      case 2:
        return eb::NullOf(DataType::kBool);
      default:
        return Compare(NumericExpr(0), NumericExpr(0));
    }
  }

  ExprPtr Compare(ExprPtr a, ExprPtr b) {
    switch (Pick(6)) {
      case 0:
        return eb::Eq(std::move(a), std::move(b));
      case 1:
        return eb::Ne(std::move(a), std::move(b));
      case 2:
        return eb::Lt(std::move(a), std::move(b));
      case 3:
        return eb::Le(std::move(a), std::move(b));
      case 4:
        return eb::Gt(std::move(a), std::move(b));
      default:
        return eb::Ge(std::move(a), std::move(b));
    }
  }

  ExprPtr NumericExpr(int depth) {
    if (depth <= 0 || Chance(2)) return NumericLeaf();
    ExprPtr a = NumericExpr(depth - 1);
    ExprPtr b = NumericExpr(depth - 1);
    switch (Pick(4)) {
      case 0:
        return eb::Add(std::move(a), std::move(b));
      case 1:
        return eb::Sub(std::move(a), std::move(b));
      case 2:
        return eb::Mul(std::move(a), std::move(b));
      default:
        // Division yields NULL on a zero divisor; the zero-heavy literal
        // space makes sure that path fires.
        return eb::Div(std::move(a), std::move(b));
    }
  }

  ExprPtr NumericLeaf() {
    switch (Pick(8)) {
      case 0:
        return eb::Col(1, DataType::kInt64);
      case 1:
        return eb::Col(2, DataType::kInt64);
      case 2:
        return eb::Col(3, DataType::kFloat64);
      case 3:
        return eb::Col(4, DataType::kFloat64);
      case 4:
        return eb::Int(Pick(7) - 3);  // small: zeros included for Div
      case 5:
        return eb::Int(Pick(201) - 100);
      case 6:
        return eb::Dbl((Pick(81) - 40) / 4.0);
      default:
        return Chance(3) ? eb::NullOf(DataType::kInt64)
                         : eb::Dbl(static_cast<double>(Pick(41) - 20));
    }
  }

  ExprPtr StringLeaf() {
    static const char* kStrings[] = {"a", "b", "c", "mm", "zz"};
    switch (Pick(3)) {
      case 0:
        return eb::Col(5, DataType::kString);
      case 1:
        return eb::NullOf(DataType::kString);
      default:
        return eb::Str(kStrings[Pick(5)]);
    }
  }

  ExprPtr RangeLeaf() {
    if (!leaves_.empty() && Chance(5)) {
      return leaves_[Pick(static_cast<int>(leaves_.size()))];
    }
    ExprPtr leaf;
    switch (Pick(5)) {
      case 0:
        leaf = eb::NullOf(DataType::kBool);
        break;
      case 1: {
        int lo = Pick(181) - 100;
        leaf = eb::Between(eb::Col(1 + Pick(2), DataType::kInt64), eb::Int(lo),
                           eb::Int(lo + Pick(80)));
        break;
      }
      case 2:
        leaf = eb::Lt(eb::Col(3 + Pick(2), DataType::kFloat64),
                      eb::Dbl((Pick(401) - 200) / 4.0));
        break;
      case 3:
        leaf = Compare(eb::Col(5, DataType::kString), StringLeaf());
        break;
      default:
        leaf = Compare(eb::Col(1, DataType::kInt64),
                       eb::Col(3, DataType::kFloat64));
        break;
    }
    leaves_.push_back(leaf);
    return leaf;
  }

  std::vector<ExprPtr> leaves_;
  std::mt19937 rng_;
};

/// Checks every vectorized entry point (EvalAll, EvalFilter, and EvalSel /
/// NarrowFilter over a random subset of rows) of `expr` over `chunk`
/// against the reference interpreter, cell for cell.
void ExpectMatchesRowOracle(const ExprPtr& expr, const Chunk& chunk,
                            std::mt19937* sel_rng, int trial) {
  size_t rows = chunk.num_rows();
  auto bound = BindExpr(expr, FuzzSchema());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString() << "\n"
                          << expr->ToString();

  // Oracle: the reference evaluator's row-at-a-time interpreter.
  reference::RowExpr interpreted =
      Unwrap(reference::RowExpr::Resolve(expr, FuzzSchema()));
  std::vector<Value> oracle;
  oracle.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    oracle.push_back(interpreted.Eval(RowAt(chunk, r)));
  }

  // EvalAll must agree on every cell.
  Column all = bound->EvalAll(chunk);
  ASSERT_EQ(all.size(), rows);
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_EQ(all.GetValue(r), oracle[r])
        << expr->ToString() << " row " << r << " trial " << trial;
  }

  // EvalFilter must keep exactly the rows whose oracle value is TRUE.
  std::vector<uint32_t> expect_keep;
  for (size_t r = 0; r < rows; ++r) {
    if (!oracle[r].is_null() && oracle[r].bool_value()) {
      expect_keep.push_back(static_cast<uint32_t>(r));
    }
  }
  SelVector keep = bound->EvalFilter(chunk);
  ASSERT_EQ(keep.indexes(), expect_keep)
      << expr->ToString() << " trial " << trial;

  // EvalSel / NarrowFilter over a random subset of rows.
  SelVector sub;
  for (size_t r = 0; r < rows; ++r) {
    if (std::uniform_int_distribution<int>(0, 1)(*sel_rng) == 0) {
      sub.push_back(static_cast<uint32_t>(r));
    }
  }
  Column sparse = bound->EvalSel(chunk, sub);
  ASSERT_EQ(sparse.size(), sub.size());
  for (size_t j = 0; j < sub.size(); ++j) {
    ASSERT_EQ(sparse.GetValue(j), oracle[sub[j]])
        << expr->ToString() << " sel slot " << j << " trial " << trial;
  }
  std::vector<uint32_t> expect_narrow;
  for (uint32_t r : sub) {
    if (!oracle[r].is_null() && oracle[r].bool_value()) {
      expect_narrow.push_back(r);
    }
  }
  SelVector narrowed = sub;
  bound->NarrowFilter(chunk, &narrowed);
  ASSERT_EQ(narrowed.indexes(), expect_narrow)
      << expr->ToString() << " trial " << trial;
}

TEST(ExprVectorTest, RandomizedKernelsMatchRowOracle) {
  ExprFuzzer fuzz(20260806);
  std::mt19937 sel_rng(7);
  for (int trial = 0; trial < 600; ++trial) {
    // Odd row counts exercise tail handling; trial 0 covers the empty chunk.
    // From trial 300 on, predicates are nested AND/OR trees, some over the
    // largest chunk the executor deals (OR's chunk-sized scratch).
    bool and_or = trial >= 300;
    size_t rows = trial == 0 ? 0 : 1 + trial % 97;
    if (and_or && trial % 50 == 0) rows = 4096;
    Chunk chunk = fuzz.RandomChunk(rows);
    ExprPtr expr = and_or ? fuzz.RandomAndOr(3) : fuzz.RandomPredicate(3);
    ExpectMatchesRowOracle(expr, chunk, &sel_rng, trial);
    if (HasFatalFailure()) return;
  }
}

// IN over a column and literal items runs the sorted-array kernels: int,
// double and string operands; lists of 1 to 100 items that mix ints and
// doubles, hold NULLs (an unlisted operand is then NULL, not FALSE) or
// items of the other class (which never match); every entry point agrees
// with the reference interpreter.
TEST(ExprVectorTest, InListKernelsMatchRowOracle) {
  ExprFuzzer fuzz(20261019);
  std::mt19937 rng(19);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  static const char* kStrings[] = {"a", "b", "c", "mm", "zz", "q"};
  const Schema schema = FuzzSchema();
  for (int trial = 0; trial < 300; ++trial) {
    Chunk chunk = fuzz.RandomChunk(1 + trial % 61);
    int operand = pick(5);  // i0, i1, d0, d1, s0
    const ColumnInfo& col = schema.column(static_cast<size_t>(operand));
    std::vector<ExprPtr> items;
    int n = trial % 10 == 0 ? 100 : 1 + pick(6);
    for (int i = 0; i < n; ++i) {
      switch (pick(8)) {
        case 0:
          items.push_back(eb::NullOf(pick(2) == 0 ? DataType::kInt64
                                                  : DataType::kString));
          break;
        case 1:
          items.push_back(eb::Dbl((pick(401) - 200) / 4.0));
          break;
        case 2:
          items.push_back(eb::Str(kStrings[pick(6)]));
          break;
        case 3:
          items.push_back(eb::Int(pick(201) - 100));
          break;
        default:
          items.push_back(col.type == DataType::kString
                              ? eb::Str(kStrings[pick(6)])
                              : eb::Int(pick(201) - 100));
      }
    }
    ExprPtr expr = eb::In(eb::Col(col), std::move(items));
    ExpectMatchesRowOracle(expr, chunk, &rng, trial);
    if (HasFatalFailure()) return;
  }
}

// A column-free AND/OR tree narrowed over a chunk with no columns (what a
// join residual that reads no column sees): the chunk reports zero rows, so
// the selection, not the chunk, bounds every row the kernels touch.
TEST(ExprVectorTest, ColumnFreeAndOrNarrowsOverAZeroColumnChunk) {
  std::mt19937 rng(20261017);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  std::function<ExprPtr(int)> tree = [&](int depth) -> ExprPtr {
    if (depth <= 0 || pick(4) == 0) {
      switch (pick(4)) {
        case 0:
          return eb::NullOf(DataType::kBool);
        case 1:
          return eb::True();
        case 2:
          return eb::False();
        default:
          return eb::IsNull(eb::NullOf(DataType::kInt64));
      }
    }
    std::vector<ExprPtr> kids;
    for (int i = 0, n = 2 + pick(3); i < n; ++i) {
      kids.push_back(tree(depth - 1));
    }
    return pick(2) == 0 ? eb::And(std::move(kids)) : eb::Or(std::move(kids));
  };
  const Chunk empty;
  for (int trial = 0; trial < 200; ++trial) {
    ExprPtr expr = trial == 0 ? eb::Or(eb::NullOf(DataType::kBool), eb::True())
                              : tree(3);
    BoundExpr bound = Unwrap(BindExpr(expr, Schema()));
    Value v = Unwrap(reference::RowExpr::Resolve(expr, Schema()))
                  .Eval(reference::Row{});
    bool pass = !v.is_null() && v.bool_value();
    size_t rows = 1 + pick(5000);
    SelVector dense = SelVector::Dense(rows);
    SelVector sub;
    for (uint32_t r = 0; r < rows; ++r) {
      if (pick(3) == 0) sub.push_back(r);
    }
    for (SelVector* sel : {&dense, &sub}) {
      std::vector<uint32_t> expect = pass ? sel->indexes()
                                          : std::vector<uint32_t>{};
      bound.NarrowFilter(empty, sel);
      ASSERT_EQ(sel->indexes(), expect)
          << expr->ToString() << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned three-valued-logic edge cases on the filter path.
// ---------------------------------------------------------------------------

/// One bool-typed column holding [TRUE, FALSE, NULL] x [TRUE, FALSE, NULL]:
/// column p cycles slowly, q quickly, covering all nine Kleene pairs.
Chunk KleeneChunk() {
  Chunk c = Chunk::Empty({DataType::kBool, DataType::kBool});
  const int kTrue = 0, kFalse = 1, kNull = 2;
  for (int p : {kTrue, kFalse, kNull}) {
    for (int q : {kTrue, kFalse, kNull}) {
      if (p == kNull) {
        c.columns[0].AppendNull();
      } else {
        c.columns[0].AppendBool(p == kTrue);
      }
      if (q == kNull) {
        c.columns[1].AppendNull();
      } else {
        c.columns[1].AppendBool(q == kTrue);
      }
    }
  }
  return c;
}

Schema KleeneSchema() {
  return Schema({{1, "p", DataType::kBool}, {2, "q", DataType::kBool}});
}

SelVector Filter(const ExprPtr& e) {
  auto bound = BindExpr(e, KleeneSchema());
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound->EvalFilter(KleeneChunk());
}

ExprPtr P() { return eb::Col(1, DataType::kBool); }
ExprPtr Q() { return eb::Col(2, DataType::kBool); }

TEST(ExprVectorTest, FilterKleeneAnd) {
  // Rows 0..8 are (p,q) in {T,F,N}x{T,F,N}; AND is TRUE only for (T,T).
  EXPECT_EQ(Filter(eb::And(P(), Q())).indexes(), (std::vector<uint32_t>{0}));
}

TEST(ExprVectorTest, FilterKleeneOr) {
  // OR is TRUE when either side is TRUE: rows 0,1,2 (p=T) and 3,6 (q=T).
  EXPECT_EQ(Filter(eb::Or(P(), Q())).indexes(),
            (std::vector<uint32_t>{0, 1, 2, 3, 6}));
}

TEST(ExprVectorTest, FilterKleeneNot) {
  // NOT p is TRUE only where p is FALSE; NULL stays NULL and is dropped.
  EXPECT_EQ(Filter(eb::Not(P())).indexes(),
            (std::vector<uint32_t>{3, 4, 5}));
}

TEST(ExprVectorTest, FilterNotOfAndDeMorgan) {
  // NOT(p AND q) must match (NOT p) OR (NOT q) row-for-row.
  EXPECT_EQ(Filter(eb::Not(eb::And(P(), Q()))).indexes(),
            Filter(eb::Or(eb::Not(P()), eb::Not(Q()))).indexes());
}

TEST(ExprVectorTest, FilterOrMergeKeepsAscendingOrderWithoutDuplicates) {
  // Both disjuncts match overlapping row sets; the merged selection must be
  // ascending and duplicate-free.
  SelVector sel = Filter(eb::Or(P(), eb::Or(Q(), P())));
  EXPECT_EQ(sel.indexes(), (std::vector<uint32_t>{0, 1, 2, 3, 6}));
}

}  // namespace
}  // namespace fusiondb

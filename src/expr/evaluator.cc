#include "expr/evaluator.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

namespace fusiondb {

// ---------------------------------------------------------------------------
// Typed kernels, specialized at bind time.
//
// A compare/arith node whose operands are column references or literals of
// int/double/string physical type gets a kernel instantiated for exactly that
// (operand shape × physical type × operator) combination. The kernel reads
// raw column buffers, so the per-chunk loop carries no Value boxing and no
// per-row dispatch on expression kind or operand type. An IN over a column
// and literal items gets a kernel too, which binary-searches the sorted
// literals. Nodes outside the specialized shapes (nested operands, CASE, IN
// with a computed operand or item) fall back to the generic
// column-at-a-time code below, which is semantically identical.
// ---------------------------------------------------------------------------
struct BoundExpr::Kernels {
  // Operand accessors: a uniform IsNull(row) / Get(row) view over either a
  // column's raw buffers or a bound literal.
  struct IntCol {
    const uint8_t* valid;
    const int64_t* vals;
    IntCol(const BoundExpr& e, const Chunk& in)
        : valid(in.columns[e.column_index_].valid_data()),
          vals(in.columns[e.column_index_].ints_data()) {}
    bool IsNull(uint32_t row) const { return valid[row] == 0; }
    int64_t Get(uint32_t row) const { return vals[row]; }
  };
  struct DblCol {
    const uint8_t* valid;
    const double* vals;
    DblCol(const BoundExpr& e, const Chunk& in)
        : valid(in.columns[e.column_index_].valid_data()),
          vals(in.columns[e.column_index_].doubles_data()) {}
    bool IsNull(uint32_t row) const { return valid[row] == 0; }
    double Get(uint32_t row) const { return vals[row]; }
  };
  struct StrCol {
    const uint8_t* valid;
    const std::string* vals;
    StrCol(const BoundExpr& e, const Chunk& in)
        : valid(in.columns[e.column_index_].valid_data()),
          vals(in.columns[e.column_index_].strings_data()) {}
    bool IsNull(uint32_t row) const { return valid[row] == 0; }
    const std::string& Get(uint32_t row) const { return vals[row]; }
  };
  struct IntLit {
    int64_t v;
    IntLit(const BoundExpr& e, const Chunk&) : v(e.literal_.int_value()) {}
    bool IsNull(uint32_t) const { return false; }
    int64_t Get(uint32_t) const { return v; }
  };
  struct DblLit {
    double v;
    DblLit(const BoundExpr& e, const Chunk&) : v(e.literal_.double_value()) {}
    bool IsNull(uint32_t) const { return false; }
    double Get(uint32_t) const { return v; }
  };
  struct StrLit {
    const std::string* v;
    StrLit(const BoundExpr& e, const Chunk&)
        : v(&e.literal_.string_value()) {}
    bool IsNull(uint32_t) const { return false; }
    const std::string& Get(uint32_t) const { return *v; }
  };

  // Comparison functors. Same-type operands compare natively (int64 stays
  // int64, matching the generic CompareColumns path); mixed int/double
  // promotes to double, matching Value::Compare's numeric promotion.
  template <typename A, typename B>
  static bool Less(const A& a, const B& b) {
    if constexpr (std::is_same_v<A, B>) {
      return a < b;
    } else {
      return static_cast<double>(a) < static_cast<double>(b);
    }
  }
  template <typename A, typename B>
  static bool Equal(const A& a, const B& b) {
    if constexpr (std::is_same_v<A, B>) {
      return a == b;
    } else {
      return static_cast<double>(a) == static_cast<double>(b);
    }
  }
  struct OpEq {
    template <typename A, typename B>
    static bool Apply(const A& a, const B& b) {
      return Equal(a, b);
    }
  };
  struct OpNe {
    template <typename A, typename B>
    static bool Apply(const A& a, const B& b) {
      return !Equal(a, b);
    }
  };
  struct OpLt {
    template <typename A, typename B>
    static bool Apply(const A& a, const B& b) {
      return Less(a, b);
    }
  };
  struct OpLe {
    template <typename A, typename B>
    static bool Apply(const A& a, const B& b) {
      return !Less(b, a);
    }
  };
  struct OpGt {
    template <typename A, typename B>
    static bool Apply(const A& a, const B& b) {
      return Less(b, a);
    }
  };
  struct OpGe {
    template <typename A, typename B>
    static bool Apply(const A& a, const B& b) {
      return !Less(a, b);
    }
  };

  // Arithmetic functors; operands arrive pre-promoted to a common type.
  struct ArAdd {
    static constexpr bool kIsDiv = false;
    template <typename T>
    static T Apply(T a, T b) {
      return a + b;
    }
  };
  struct ArSub {
    static constexpr bool kIsDiv = false;
    template <typename T>
    static T Apply(T a, T b) {
      return a - b;
    }
  };
  struct ArMul {
    static constexpr bool kIsDiv = false;
    template <typename T>
    static T Apply(T a, T b) {
      return a * b;
    }
  };
  struct ArDiv {
    static constexpr bool kIsDiv = true;
    template <typename T>
    static T Apply(T a, T b) {
      return a / b;
    }
  };

  /// Filter kernel: compacts `sel` in place to the rows where the comparison
  /// is TRUE (NULL operands fail). Branch-free: every row is written and
  /// `kept` advances only past the TRUE ones (a NULL slot holds its type's
  /// default value, so comparing it is defined). Reads trail writes, so the
  /// in-place compaction is safe.
  template <typename L, typename R, typename Op>
  static void CmpFilter(const BoundExpr& e, const Chunk& in, SelVector* sel) {
    L l(e.children_[0], in);
    R r(e.children_[1], in);
    std::vector<uint32_t>& rows = sel->indexes();
    size_t kept = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      uint32_t row = rows[i];
      bool keep = !l.IsNull(row) & !r.IsNull(row) &
                  Op::Apply(l.Get(row), r.Get(row));
      rows[kept] = row;
      kept += keep;
    }
    rows.resize(kept);
  }

  /// Compute kernel: a dense bool column over `sel` (or over every row when
  /// `sel` is null), NULL where either operand is NULL.
  template <typename L, typename R, typename Op>
  static Column CmpCompute(const BoundExpr& e, const Chunk& in,
                           const SelVector* sel) {
    L l(e.children_[0], in);
    R r(e.children_[1], in);
    size_t n = sel ? sel->size() : in.num_rows();
    Column out(DataType::kBool);
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = sel ? (*sel)[i] : static_cast<uint32_t>(i);
      if (l.IsNull(row) || r.IsNull(row)) {
        out.AppendNull();
      } else {
        out.AppendBool(Op::Apply(l.Get(row), r.Get(row)));
      }
    }
    return out;
  }

  /// Arithmetic compute kernel. INT_RESULT selects the int64 path (both
  /// operands int-physical, op != div); otherwise operands promote to double
  /// and division by zero yields NULL — both matching the generic
  /// ArithColumns path and scalar_ops' EvalArithOp.
  template <typename L, typename R, typename Op, bool INT_RESULT>
  static Column ArithCompute(const BoundExpr& e, const Chunk& in,
                             const SelVector* sel) {
    L l(e.children_[0], in);
    R r(e.children_[1], in);
    size_t n = sel ? sel->size() : in.num_rows();
    Column out(e.type_);
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = sel ? (*sel)[i] : static_cast<uint32_t>(i);
      if (l.IsNull(row) || r.IsNull(row)) {
        out.AppendNull();
        continue;
      }
      if constexpr (INT_RESULT) {
        int64_t a = l.Get(row);
        int64_t b = r.Get(row);
        out.AppendInt(Op::template Apply<int64_t>(a, b));
      } else {
        double a = static_cast<double>(l.Get(row));
        double b = static_cast<double>(r.Get(row));
        if constexpr (Op::kIsDiv) {
          if (b == 0.0) {
            out.AppendNull();
            continue;
          }
        }
        out.AppendDouble(Op::template Apply<double>(a, b));
      }
    }
    return out;
  }

  /// IN over a list of literals, the operand a column: its non-NULL value
  /// is looked up in the list's sorted values by binary search. Equality
  /// is Value::Compare's: numbers compare as doubles (an int operand is
  /// converted), and NaN equals every number.
  static bool Listed(const BoundExpr& e, double v) {
    const std::vector<double>& s = e.in_items_->numbers;
    if (s.empty()) return false;
    if (v != v) return true;
    // Branch-free lower bound: each halving step is a conditional move, so
    // a row costs log2(k) loads and no mispredicted branch.
    const double* base = s.data();
    for (size_t len = s.size(); len > 1; len -= len / 2) {
      base += base[len / 2 - 1] < v ? len / 2 : 0;
    }
    return *base == v;
  }
  static bool Listed(const BoundExpr& e, int64_t v) {
    return Listed(e, static_cast<double>(v));
  }
  static bool Listed(const BoundExpr& e, const std::string& v) {
    const std::vector<std::string>& s = e.in_items_->strings;
    return std::binary_search(s.begin(), s.end(), v);
  }

  /// Filter kernel: keeps the rows whose operand is listed (a NULL operand
  /// or an unlisted one with a NULL item is NULL, and fails).
  template <typename A>
  static void InFilter(const BoundExpr& e, const Chunk& in, SelVector* sel) {
    A a(e.children_[0], in);
    std::vector<uint32_t>& rows = sel->indexes();
    size_t kept = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      uint32_t row = rows[i];
      rows[kept] = row;
      kept += !a.IsNull(row) && Listed(e, a.Get(row));
    }
    rows.resize(kept);
  }

  /// Compute kernel: TRUE when listed; else NULL when the operand or an
  /// item is NULL, FALSE otherwise.
  template <typename A>
  static Column InCompute(const BoundExpr& e, const Chunk& in,
                          const SelVector* sel) {
    A a(e.children_[0], in);
    size_t n = sel ? sel->size() : in.num_rows();
    Column out(DataType::kBool);
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = sel ? (*sel)[i] : static_cast<uint32_t>(i);
      if (a.IsNull(row)) {
        out.AppendNull();
      } else if (Listed(e, a.Get(row))) {
        out.AppendBool(true);
      } else if (e.in_items_->has_null) {
        out.AppendNull();
      } else {
        out.AppendBool(false);
      }
    }
    return out;
  }

  template <typename A>
  static void InstallIn(BoundExpr* e) {
    e->filter_fn_ = &InFilter<A>;
    e->compute_fn_ = &InCompute<A>;
  }

  /// Kernels for compare/arith with a NULL literal operand: the result is
  /// NULL for every row, so the filter form keeps nothing.
  static void NullFilter(const BoundExpr&, const Chunk&, SelVector* sel) {
    sel->clear();
  }
  static Column NullCompute(const BoundExpr& e, const Chunk& in,
                            const SelVector* sel) {
    size_t n = sel ? sel->size() : in.num_rows();
    Column out(e.type_);
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) out.AppendNull();
    return out;
  }

  // --- bind-time dispatch: operator, then left accessor, then right --------

  template <typename L, typename R>
  static void InstallCmp(BoundExpr* e) {
    switch (e->cmp_) {
      case CompareOp::kEq:
        e->filter_fn_ = &CmpFilter<L, R, OpEq>;
        e->compute_fn_ = &CmpCompute<L, R, OpEq>;
        break;
      case CompareOp::kNe:
        e->filter_fn_ = &CmpFilter<L, R, OpNe>;
        e->compute_fn_ = &CmpCompute<L, R, OpNe>;
        break;
      case CompareOp::kLt:
        e->filter_fn_ = &CmpFilter<L, R, OpLt>;
        e->compute_fn_ = &CmpCompute<L, R, OpLt>;
        break;
      case CompareOp::kLe:
        e->filter_fn_ = &CmpFilter<L, R, OpLe>;
        e->compute_fn_ = &CmpCompute<L, R, OpLe>;
        break;
      case CompareOp::kGt:
        e->filter_fn_ = &CmpFilter<L, R, OpGt>;
        e->compute_fn_ = &CmpCompute<L, R, OpGt>;
        break;
      case CompareOp::kGe:
        e->filter_fn_ = &CmpFilter<L, R, OpGe>;
        e->compute_fn_ = &CmpCompute<L, R, OpGe>;
        break;
    }
  }

  static bool IsLit(const BoundExpr& e) {
    return e.kind_ == ExprKind::kLiteral;
  }
  static bool IsDbl(const BoundExpr& e) {
    return PhysicalTypeOf(e.type_) == PhysicalType::kDouble;
  }

  template <typename L>
  static void InstallCmpNumR(BoundExpr* e) {
    const BoundExpr& r = e->children_[1];
    if (IsLit(r)) {
      IsDbl(r) ? InstallCmp<L, DblLit>(e) : InstallCmp<L, IntLit>(e);
    } else {
      IsDbl(r) ? InstallCmp<L, DblCol>(e) : InstallCmp<L, IntCol>(e);
    }
  }
  static void InstallCmpNum(BoundExpr* e) {
    const BoundExpr& l = e->children_[0];
    if (IsLit(l)) {
      IsDbl(l) ? InstallCmpNumR<DblLit>(e) : InstallCmpNumR<IntLit>(e);
    } else {
      IsDbl(l) ? InstallCmpNumR<DblCol>(e) : InstallCmpNumR<IntCol>(e);
    }
  }
  static void InstallCmpStr(BoundExpr* e) {
    const BoundExpr& l = e->children_[0];
    const BoundExpr& r = e->children_[1];
    if (IsLit(l)) {
      IsLit(r) ? InstallCmp<StrLit, StrLit>(e) : InstallCmp<StrLit, StrCol>(e);
    } else {
      IsLit(r) ? InstallCmp<StrCol, StrLit>(e) : InstallCmp<StrCol, StrCol>(e);
    }
  }

  template <typename L, typename R, bool INT_RESULT>
  static ComputeFn ArithFor(ArithOp op) {
    switch (op) {
      case ArithOp::kAdd:
        return &ArithCompute<L, R, ArAdd, INT_RESULT>;
      case ArithOp::kSub:
        return &ArithCompute<L, R, ArSub, INT_RESULT>;
      case ArithOp::kMul:
        return &ArithCompute<L, R, ArMul, INT_RESULT>;
      case ArithOp::kDiv:
        // Division always runs on the double path (NULL on zero divisor).
        if constexpr (INT_RESULT) {
          return nullptr;
        } else {
          return &ArithCompute<L, R, ArDiv, false>;
        }
    }
    return nullptr;
  }

  static ComputeFn PickArithInt(const BoundExpr& e) {
    const BoundExpr& l = e.children_[0];
    const BoundExpr& r = e.children_[1];
    if (IsLit(l)) {
      return IsLit(r) ? ArithFor<IntLit, IntLit, true>(e.arith_)
                      : ArithFor<IntLit, IntCol, true>(e.arith_);
    }
    return IsLit(r) ? ArithFor<IntCol, IntLit, true>(e.arith_)
                    : ArithFor<IntCol, IntCol, true>(e.arith_);
  }
  template <typename L>
  static ComputeFn PickArithDblR(const BoundExpr& e) {
    const BoundExpr& r = e.children_[1];
    if (IsLit(r)) {
      return IsDbl(r) ? ArithFor<L, DblLit, false>(e.arith_)
                      : ArithFor<L, IntLit, false>(e.arith_);
    }
    return IsDbl(r) ? ArithFor<L, DblCol, false>(e.arith_)
                    : ArithFor<L, IntCol, false>(e.arith_);
  }
  static ComputeFn PickArithDbl(const BoundExpr& e) {
    const BoundExpr& l = e.children_[0];
    if (IsLit(l)) {
      return IsDbl(l) ? PickArithDblR<DblLit>(e) : PickArithDblR<IntLit>(e);
    }
    return IsDbl(l) ? PickArithDblR<DblCol>(e) : PickArithDblR<IntCol>(e);
  }
};

void BoundExpr::SpecializeIn() {
  const BoundExpr& operand = children_[0];
  if (operand.kind_ != ExprKind::kColumnRef) return;
  const bool is_string = operand.type_ == DataType::kString;
  auto items = std::make_shared<InItems>();
  for (size_t i = 1; i < children_.size(); ++i) {
    const BoundExpr& item = children_[i];
    if (item.kind_ != ExprKind::kLiteral) return;
    const Value& v = item.literal_;
    if (v.is_null()) {
      items->has_null = true;
    } else if (is_string) {
      // An item of the other class never equals the operand: skipped.
      if (v.type() == DataType::kString) {
        items->strings.push_back(v.string_value());
      }
    } else if (v.type() != DataType::kString) {
      if (std::isnan(v.AsDouble())) return;  // equals everything: row path
      items->numbers.push_back(v.AsDouble());
    }
  }
  std::sort(items->numbers.begin(), items->numbers.end());
  std::sort(items->strings.begin(), items->strings.end());
  in_items_ = std::move(items);
  switch (PhysicalTypeOf(operand.type_)) {
    case PhysicalType::kInt:
      Kernels::InstallIn<Kernels::IntCol>(this);
      break;
    case PhysicalType::kDouble:
      Kernels::InstallIn<Kernels::DblCol>(this);
      break;
    case PhysicalType::kString:
      Kernels::InstallIn<Kernels::StrCol>(this);
      break;
  }
}

void BoundExpr::SpecializeKernels() {
  if (kind_ == ExprKind::kInList) {
    SpecializeIn();
    return;
  }
  if (kind_ != ExprKind::kCompare && kind_ != ExprKind::kArith) return;
  const BoundExpr& l = children_[0];
  const BoundExpr& r = children_[1];
  auto is_leaf = [](const BoundExpr& c) {
    return c.kind_ == ExprKind::kColumnRef || c.kind_ == ExprKind::kLiteral;
  };
  if (!is_leaf(l) || !is_leaf(r)) return;
  if ((l.kind_ == ExprKind::kLiteral && l.literal_.is_null()) ||
      (r.kind_ == ExprKind::kLiteral && r.literal_.is_null())) {
    compute_fn_ = &Kernels::NullCompute;
    if (kind_ == ExprKind::kCompare) filter_fn_ = &Kernels::NullFilter;
    return;
  }
  PhysicalType lp = PhysicalTypeOf(l.type_);
  PhysicalType rp = PhysicalTypeOf(r.type_);
  if (kind_ == ExprKind::kCompare) {
    // Mirror the generic comparator's type classes exactly: both int-physical
    // (bool/int64/date) compares as int64, mixed numeric promotes to double,
    // strings compare lexicographically. Anything else (e.g. date vs double)
    // stays on the generic Value::Compare fallback.
    bool both_int = lp == PhysicalType::kInt && rp == PhysicalType::kInt;
    bool both_numeric = IsNumeric(l.type_) && IsNumeric(r.type_);
    if (both_int || both_numeric) {
      Kernels::InstallCmpNum(this);
    } else if (l.type_ == DataType::kString && r.type_ == DataType::kString) {
      Kernels::InstallCmpStr(this);
    }
    return;
  }
  // Arith.
  if (lp == PhysicalType::kString || rp == PhysicalType::kString) return;
  bool int_result =
      PhysicalTypeOf(type_) == PhysicalType::kInt && arith_ != ArithOp::kDiv;
  if (int_result) {
    if (lp == PhysicalType::kInt && rp == PhysicalType::kInt) {
      compute_fn_ = Kernels::PickArithInt(*this);
    }
  } else {
    compute_fn_ = Kernels::PickArithDbl(*this);
  }
}

Result<BoundExpr> BindExpr(const ExprPtr& expr, const Schema& schema) {
  BoundExpr b;
  b.kind_ = expr->kind();
  b.type_ = expr->type();
  if (expr->kind() == ExprKind::kColumnRef) {
    int idx = schema.IndexOf(expr->column_id());
    if (idx < 0) {
      return Status::PlanError("expression references column #" +
                               std::to_string(expr->column_id()) +
                               " not present in input schema " +
                               schema.ToString());
    }
    b.column_index_ = idx;
    return b;
  }
  if (expr->kind() == ExprKind::kLiteral) {
    b.literal_ = expr->literal();
    return b;
  }
  b.cmp_ = expr->compare_op();
  b.arith_ = expr->arith_op();
  b.children_.reserve(expr->children().size());
  for (const ExprPtr& c : expr->children()) {
    FUSIONDB_ASSIGN_OR_RETURN(BoundExpr bc, BindExpr(c, schema));
    b.children_.push_back(std::move(bc));
  }
  b.SpecializeKernels();
  return b;
}

namespace {

// --- Generic column-at-a-time fallbacks -------------------------------------
// Nodes without a bind-time kernel (nested operands, CASE, IN, logic over
// non-predicate context) evaluate here: one loop per node per chunk over the
// children's dense result columns.

Column BroadcastLiteral(const Value& v, DataType type, size_t n) {
  Column out(type);
  out.Reserve(n);
  for (size_t r = 0; r < n; ++r) out.AppendValue(v);
  return out;
}

Column CompareColumns(CompareOp op, const Column& l, const Column& r) {
  size_t n = l.size();
  Column out(DataType::kBool);
  out.Reserve(n);
  bool both_int = PhysicalTypeOf(l.type()) == PhysicalType::kInt &&
                  PhysicalTypeOf(r.type()) == PhysicalType::kInt;
  bool both_string = l.type() == DataType::kString &&
                     r.type() == DataType::kString;
  bool numeric = IsNumeric(l.type()) && IsNumeric(r.type());
  auto emit = [&](int c) {
    switch (op) {
      case CompareOp::kEq:
        out.AppendBool(c == 0);
        break;
      case CompareOp::kNe:
        out.AppendBool(c != 0);
        break;
      case CompareOp::kLt:
        out.AppendBool(c < 0);
        break;
      case CompareOp::kLe:
        out.AppendBool(c <= 0);
        break;
      case CompareOp::kGt:
        out.AppendBool(c > 0);
        break;
      case CompareOp::kGe:
        out.AppendBool(c >= 0);
        break;
    }
  };
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    if (both_int) {
      int64_t a = l.IntAt(i);
      int64_t b = r.IntAt(i);
      emit(a < b ? -1 : (a > b ? 1 : 0));
    } else if (numeric) {
      double a = l.NumericAt(i);
      double b = r.NumericAt(i);
      emit(a < b ? -1 : (a > b ? 1 : 0));
    } else if (both_string) {
      int c = l.StringAt(i).compare(r.StringAt(i));
      emit(c < 0 ? -1 : (c > 0 ? 1 : 0));
    } else {
      emit(l.GetValue(i).Compare(r.GetValue(i)));
    }
  }
  return out;
}

Column ArithColumns(ArithOp op, DataType result_type, const Column& l,
                    const Column& r) {
  size_t n = l.size();
  Column out(result_type);
  out.Reserve(n);
  bool int_result = PhysicalTypeOf(result_type) == PhysicalType::kInt &&
                    op != ArithOp::kDiv;
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    if (int_result) {
      int64_t a = l.IntAt(i);
      int64_t b = r.IntAt(i);
      // Division always computes in double, so int_result excludes kDiv.
      out.AppendInt(op == ArithOp::kAdd   ? a + b
                    : op == ArithOp::kSub ? a - b
                                          : a * b);
    } else {
      double a = l.NumericAt(i);
      double b = r.NumericAt(i);
      switch (op) {
        case ArithOp::kAdd:
          out.AppendDouble(a + b);
          break;
        case ArithOp::kSub:
          out.AppendDouble(a - b);
          break;
        case ArithOp::kMul:
          out.AppendDouble(a * b);
          break;
        case ArithOp::kDiv:
          if (b == 0.0) {
            out.AppendNull();
          } else {
            out.AppendDouble(a / b);
          }
          break;
      }
    }
  }
  return out;
}

/// Branch-free compaction of an ascending selection against a row-indexed
/// mark array: keeps the rows whose mark equals `want`.
void CompactByMark(const uint8_t* mark, uint8_t want, SelVector* sel) {
  std::vector<uint32_t>& rows = sel->indexes();
  size_t kept = 0;
  for (uint32_t row : rows) {
    rows[kept] = row;
    kept += mark[row] == want;
  }
  rows.resize(kept);
}

}  // namespace

Column BoundExpr::EvalInternal(const Chunk& input, const SelVector* sel) const {
  if (compute_fn_ != nullptr) return compute_fn_(*this, input, sel);
  size_t n = sel ? sel->size() : input.num_rows();
  switch (kind_) {
    case ExprKind::kColumnRef:
      if (sel) return input.columns[column_index_].Gather(*sel);
      return input.columns[column_index_];
    case ExprKind::kLiteral:
      return BroadcastLiteral(literal_, type_, n);
    case ExprKind::kCompare: {
      Column l = children_[0].EvalInternal(input, sel);
      Column r = children_[1].EvalInternal(input, sel);
      return CompareColumns(cmp_, l, r);
    }
    case ExprKind::kArith: {
      Column l = children_[0].EvalInternal(input, sel);
      Column r = children_[1].EvalInternal(input, sel);
      return ArithColumns(arith_, type_, l, r);
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      // Kleene: AND is FALSE if any child is FALSE, else NULL if any NULL,
      // else TRUE (dual for OR).
      bool is_and = kind_ == ExprKind::kAnd;
      std::vector<uint8_t> dominant(n, 0);
      std::vector<uint8_t> has_null(n, 0);
      for (const BoundExpr& c : children_) {
        Column col = c.EvalInternal(input, sel);
        for (size_t i = 0; i < n; ++i) {
          if (col.IsNull(i)) {
            has_null[i] = 1;
          } else if (col.BoolAt(i) != is_and) {
            dominant[i] = 1;
          }
        }
      }
      Column out(DataType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (dominant[i]) {
          out.AppendBool(!is_and);
        } else if (has_null[i]) {
          out.AppendNull();
        } else {
          out.AppendBool(is_and);
        }
      }
      return out;
    }
    case ExprKind::kNot: {
      Column c = children_[0].EvalInternal(input, sel);
      Column out(DataType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (c.IsNull(i)) {
          out.AppendNull();
        } else {
          out.AppendBool(!c.BoolAt(i));
        }
      }
      return out;
    }
    case ExprKind::kIsNull: {
      Column c = children_[0].EvalInternal(input, sel);
      Column out(DataType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) out.AppendBool(c.IsNull(i));
      return out;
    }
    case ExprKind::kCase: {
      size_t arms = children_.size();
      std::vector<Column> cols;
      cols.reserve(arms);
      for (const BoundExpr& c : children_) {
        cols.push_back(c.EvalInternal(input, sel));
      }
      Column out(type_);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        size_t chosen = arms - 1;  // else branch
        for (size_t a = 0; a + 1 < arms; a += 2) {
          if (!cols[a].IsNull(i) && cols[a].BoolAt(i)) {
            chosen = a + 1;
            break;
          }
        }
        out.AppendFrom(cols[chosen], i);
      }
      return out;
    }
    case ExprKind::kInList: {
      std::vector<Column> cols;
      cols.reserve(children_.size());
      for (const BoundExpr& c : children_) {
        cols.push_back(c.EvalInternal(input, sel));
      }
      Column out(DataType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (cols[0].IsNull(i)) {
          out.AppendNull();
          continue;
        }
        Value operand = cols[0].GetValue(i);
        bool saw_null = false;
        bool found = false;
        for (size_t k = 1; k < cols.size() && !found; ++k) {
          if (cols[k].IsNull(i)) {
            saw_null = true;
          } else if (operand.Compare(cols[k].GetValue(i)) == 0) {
            found = true;
          }
        }
        if (found) {
          out.AppendBool(true);
        } else if (saw_null) {
          out.AppendNull();
        } else {
          out.AppendBool(false);
        }
      }
      return out;
    }
  }
  return Column(type_);  // not reached: the switch covers every ExprKind
}

void BoundExpr::NarrowInternal(const Chunk& input, SelVector* sel) const {
  if (sel->empty()) return;
  if (filter_fn_ != nullptr) {
    filter_fn_(*this, input, sel);
    return;
  }
  switch (kind_) {
    case ExprKind::kAnd:
      // Progressive narrowing: a row survives iff every conjunct is TRUE
      // (Kleene AND is TRUE only when all inputs are TRUE, and the filter
      // drops both FALSE and NULL), so each conjunct only has to visit the
      // previous conjuncts' survivors.
      for (const BoundExpr& c : children_) {
        c.NarrowInternal(input, sel);
        if (sel->empty()) return;
      }
      return;
    case ExprKind::kOr: {
      // A row survives iff some disjunct is TRUE; each disjunct only visits
      // rows no earlier disjunct accepted. Matches are marked in a scratch
      // owned by this call (the BoundExpr is shared across workers), so
      // `remaining` and the result each compact in one linear pass that
      // keeps them ascending and duplicate-free. The scratch is sized by
      // the selection's last row, not the chunk: a chunk with no columns
      // (a join residual that reads none) reports zero rows.
      if (sel->empty()) return;
      std::vector<uint8_t> hit(size_t{sel->indexes().back()} + 1, 0);
      SelVector remaining = *sel;
      SelVector matched;
      for (size_t c = 0; c < children_.size(); ++c) {
        matched = remaining;
        children_[c].NarrowInternal(input, &matched);
        if (matched.empty()) continue;
        for (uint32_t row : matched) hit[row] = 1;
        if (c + 1 == children_.size()) break;
        CompactByMark(hit.data(), 0, &remaining);
        if (remaining.empty()) break;
      }
      CompactByMark(hit.data(), 1, sel);
      return;
    }
    case ExprKind::kColumnRef: {
      const Column& c = input.columns[column_index_];
      const uint8_t* valid = c.valid_data();
      const int64_t* vals = c.ints_data();
      std::vector<uint32_t>& rows = sel->indexes();
      size_t kept = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        uint32_t row = rows[i];
        rows[kept] = row;
        kept += (valid[row] != 0) & (vals[row] != 0);
      }
      rows.resize(kept);
      return;
    }
    case ExprKind::kLiteral:
      if (literal_.is_null() || !literal_.bool_value()) sel->clear();
      return;
    case ExprKind::kCompare:
    case ExprKind::kArith:
    case ExprKind::kNot:
    case ExprKind::kIsNull:
    case ExprKind::kCase:
    case ExprKind::kInList: {
      // Generic predicate: evaluate densely over the selection, keep TRUE.
      Column v = EvalInternal(input, sel);
      const uint8_t* valid = v.valid_data();
      const int64_t* vals = v.ints_data();
      std::vector<uint32_t>& rows = sel->indexes();
      size_t kept = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        rows[kept] = rows[i];
        kept += (valid[i] != 0) & (vals[i] != 0);
      }
      rows.resize(kept);
      return;
    }
  }
}

Column BoundExpr::EvalAll(const Chunk& input) const {
  return EvalInternal(input, nullptr);
}

Column BoundExpr::EvalSel(const Chunk& input, const SelVector& sel) const {
  return EvalInternal(input, &sel);
}

SelVector BoundExpr::EvalFilter(const Chunk& input) const {
  SelVector sel = SelVector::Dense(input.num_rows());
  NarrowFilter(input, &sel);
  return sel;
}

void BoundExpr::NarrowFilter(const Chunk& input, SelVector* sel) const {
  NarrowInternal(input, sel);
}

}  // namespace fusiondb

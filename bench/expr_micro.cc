// Micro-benchmarks for vectorized expression evaluation: the bind-time typed
// kernels + selection-vector path over identical synthesized chunks. The
// *Vec names date from when each benchmark had a row-at-a-time twin; the
// engine no longer has a row path, so only the vectorized variants remain
// (EXPERIMENTS.md keeps the historical row columns).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_gbench.h"
#include "bench_util.h"
#include "expr/evaluator.h"

using namespace fusiondb;         // NOLINT
using namespace fusiondb::bench;  // NOLINT

namespace {

constexpr size_t kRows = 1 << 16;

// Deterministic LCG so every run sees the same data.
uint64_t Lcg(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

Schema TestSchema() {
  return Schema({{1, "a", DataType::kInt64},
                 {2, "b", DataType::kFloat64},
                 {3, "c", DataType::kInt64}});
}

const Chunk& TestChunk() {
  static Chunk* chunk = [] {
    auto* c = new Chunk(Chunk::Empty(
        {DataType::kInt64, DataType::kFloat64, DataType::kInt64}));
    uint64_t state = 42;
    for (size_t i = 0; i < kRows; ++i) {
      if (Lcg(&state) % 20 == 0) {
        c->columns[0].AppendNull();
      } else {
        c->columns[0].AppendInt(static_cast<int64_t>(Lcg(&state) % 100));
      }
      if (Lcg(&state) % 20 == 0) {
        c->columns[1].AppendNull();
      } else {
        c->columns[1].AppendDouble(static_cast<double>(Lcg(&state) % 1000) /
                                   10.0);
      }
      c->columns[2].AppendInt(static_cast<int64_t>(Lcg(&state) % 1000));
    }
    return c;
  }();
  return *chunk;
}

BoundExpr Bind(const ExprPtr& e) {
  auto bound = BindExpr(e, TestSchema());
  DieIf(bound.status());
  return std::move(bound).ValueOrDie();
}

void RunFilterBench(benchmark::State& state, const ExprPtr& expr) {
  BoundExpr bound = Bind(expr);
  const Chunk& chunk = TestChunk();
  for (auto _ : state) {
    SelVector sel = bound.EvalFilter(chunk);
    benchmark::DoNotOptimize(sel.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}

// col < literal over an int column: the minimal kernel.
ExprPtr CompareColLit() {
  return eb::Lt(eb::Col(1, DataType::kInt64), eb::Int(50));
}
void BM_CompareColLitVec(benchmark::State& state) {
  RunFilterBench(state, CompareColLit());
}
BENCHMARK(BM_CompareColLitVec);

// Conjunct chain: selectivity drops per conjunct, so progressive narrowing
// touches fewer rows at every step.
ExprPtr FilterChain() {
  return eb::And(
      eb::And(eb::Ge(eb::Col(1, DataType::kInt64), eb::Int(10)),
              eb::Lt(eb::Col(1, DataType::kInt64), eb::Int(60))),
      eb::Gt(eb::Col(2, DataType::kFloat64), eb::Dbl(25.0)));
}
void BM_FilterChainVec(benchmark::State& state) {
  RunFilterBench(state, FilterChain());
}
BENCHMARK(BM_FilterChainVec);

// Column-vs-column comparison (no literal shortcut).
ExprPtr CompareColCol() {
  return eb::Lt(eb::Col(1, DataType::kInt64), eb::Col(3, DataType::kInt64));
}
void BM_CompareColColVec(benchmark::State& state) {
  RunFilterBench(state, CompareColCol());
}
BENCHMARK(BM_CompareColColVec);

// c IN (k int literals) over an int column of values 0..999: the sorted
// literal array searched per row (the row path boxed a Value per item).
void BM_InListVec(benchmark::State& state) {
  std::vector<ExprPtr> items;
  for (int64_t i = 0; i < state.range(0); ++i) items.push_back(eb::Int(i * 7));
  RunFilterBench(state, eb::In(eb::Col(3, DataType::kInt64), std::move(items)));
}
BENCHMARK(BM_InListVec)->Arg(8)->Arg(100);

// Masked-aggregate mask evaluation: the per-morsel work the aggregate sink does
// for a fused query's deduplicated masks — k bucket conditions evaluated as
// selection vectors over the same chunk (paper Section III.E shape).
void BM_MaskEvalVec(benchmark::State& state) {
  int num_masks = static_cast<int>(state.range(0));
  std::vector<BoundExpr> masks;
  masks.reserve(num_masks);
  for (int i = 0; i < num_masks; ++i) {
    masks.push_back(Bind(
        eb::Between(eb::Col(1, DataType::kInt64), eb::Int(i * 5),
                    eb::Int(i * 5 + 20))));
  }
  const Chunk& chunk = TestChunk();
  for (auto _ : state) {
    size_t total = 0;
    for (const BoundExpr& m : masks) {
      SelVector sel = m.EvalFilter(chunk);
      total += sel.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kRows * num_masks));
}
BENCHMARK(BM_MaskEvalVec)->Arg(4)->Arg(16);

// Projection arithmetic: (a + c) * 2 evaluated as a column.
ExprPtr ProjectArith() {
  return eb::Mul(eb::Add(eb::Col(1, DataType::kInt64),
                         eb::Col(3, DataType::kInt64)),
                 eb::Int(2));
}
void BM_ProjectArithVec(benchmark::State& state) {
  BoundExpr bound = Bind(ProjectArith());
  const Chunk& chunk = TestChunk();
  for (auto _ : state) {
    Column out = bound.EvalAll(chunk);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_ProjectArithVec);

// Bulk gather vs per-row copy: the row-assembly primitive behind Filter,
// Limit, Sort and join output.
void BM_GatherRows(benchmark::State& state) {
  const Chunk& chunk = TestChunk();
  SelVector sel;
  for (uint32_t r = 0; r < kRows; r += 2) sel.push_back(r);
  for (auto _ : state) {
    Chunk out = chunk.Gather(sel);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * sel.size()));
}
void BM_AppendRowFrom(benchmark::State& state) {
  const Chunk& chunk = TestChunk();
  std::vector<DataType> types;
  for (const Column& c : chunk.columns) types.push_back(c.type());
  for (auto _ : state) {
    Chunk out = Chunk::Empty(types);
    for (uint32_t r = 0; r < kRows; r += 2) out.AppendRowFrom(chunk, r);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * (kRows / 2)));
}
BENCHMARK(BM_GatherRows);
BENCHMARK(BM_AppendRowFrom);

}  // namespace

int main(int argc, char** argv) {
  return RunGbenchWithReport("expr_micro", argc, argv);
}

// Ablation over the Section IV rules: each rule is disabled in turn (the
// others stay on) and every applicable query is re-measured, showing which
// rewrite is responsible for each query's gains — the composability point
// the paper makes against Blitz's monolithic super-operators.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace fusiondb;         // NOLINT
using namespace fusiondb::bench;  // NOLINT

namespace {

struct Variant {
  std::string name;
  OptimizerOptions options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> out;
  out.push_back({"all-rules", OptimizerOptions::Fused()});
  {
    OptimizerOptions o = OptimizerOptions::Fused();
    o.enable_group_by_join_to_window = false;
    out.push_back({"-window", o});
  }
  {
    OptimizerOptions o = OptimizerOptions::Fused();
    o.enable_join_on_keys = false;
    out.push_back({"-joinkeys", o});
  }
  {
    OptimizerOptions o = OptimizerOptions::Fused();
    o.enable_union_all_on_join = false;
    out.push_back({"-unionjoin", o});
  }
  {
    OptimizerOptions o = OptimizerOptions::Fused();
    o.enable_union_all_fuse = false;
    out.push_back({"-unionfuse", o});
  }
  out.push_back({"baseline", OptimizerOptions::Baseline()});
  return out;
}

}  // namespace

int main() {
  Engine& engine = BenchEngine();
  BenchReport report("rule_ablation");
  std::vector<Variant> variants = Variants();

  std::printf("\nRule ablation — bytes scanned per optimizer variant\n\n");
  std::printf("%-6s", "query");
  for (const Variant& v : variants) std::printf(" %12s", v.name.c_str());
  std::printf("\n%s\n", std::string(6 + 13 * variants.size(), '-').c_str());

  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (!q.fusion_applicable) continue;
    std::printf("%-6s", q.name.c_str());
    for (const Variant& v : variants) {
      PreparedQuery prepared = Unwrap(engine.Prepare(q.build));
      RunStats stats = RunPrepared(&prepared, v.options, /*repeats=*/1);
      report.Add({q.name, v.name, stats.latency_ms, stats.bytes_scanned,
                  stats.peak_hash_bytes, 1});
      std::printf(" %12lld", static_cast<long long>(stats.bytes_scanned));
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading: a query's bytes jump back to the baseline level exactly "
      "when the rule that rewrites it is disabled.\n");
  report.Write();
  return 0;
}

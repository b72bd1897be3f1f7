// The optimizer pipeline. Phases (matching the paper's Section IV.E note
// that fusion rules run early, before join-order decisions, and compose
// with pre-existing rules):
//   1. normalize      — simplification, filter/project normalization
//   2. decorrelate    — Apply -> Join + GroupBy ([20])
//   3. fuse           — Section IV rules (toggleable, for A/B benchmarks)
//   4. distinct       — semi-join -> distinct-join, distinct pushdown (V.D)
//   5. fuse again     — rules enabled by phase 4 (Q95's JoinOnKeys)
//   6. cleanup        — simplify, filter pushdown, column pruning (a scan
//                       prunes partitions by the Filter directly above it)
//   7. spool          — share identical subtrees through spools (off unless
//                       enable_spooling)
//
// The baseline configuration used in benchmarks disables only phase 3/5
// fusion rules; every substrate phase runs in both configurations.
#ifndef FUSIONDB_OPTIMIZER_OPTIMIZER_H_
#define FUSIONDB_OPTIMIZER_OPTIMIZER_H_

#include "common/status.h"
#include "plan/logical_plan.h"

namespace fusiondb {

struct OptimizerOptions {
  // Section IV rules (the paper's contribution), individually toggleable so
  // the rule-ablation benchmark can isolate each one.
  bool enable_group_by_join_to_window = true;
  bool enable_join_on_keys = true;
  bool enable_union_all_on_join = true;
  bool enable_union_all_fuse = true;

  // Materialize duplicated subtrees once via spool buffers — the
  // general common-subexpression strategy the paper compares fusion
  // against. Normally used with the fusion rules off; see
  // bench/spool_vs_fusion.
  bool enable_spooling = false;

  /// All Section IV rules off — the paper's baseline.
  static OptimizerOptions Baseline() {
    OptimizerOptions o;
    o.enable_group_by_join_to_window = false;
    o.enable_join_on_keys = false;
    o.enable_union_all_on_join = false;
    o.enable_union_all_fuse = false;
    return o;
  }

  /// Everything on — the paper's instrumented configuration.
  static OptimizerOptions Fused() { return OptimizerOptions(); }

  /// Fusion rules off, spooling on: the materialization alternative.
  static OptimizerOptions Spooling() {
    OptimizerOptions o = Baseline();
    o.enable_spooling = true;
    return o;
  }
};

class Optimizer {
 public:
  explicit Optimizer(OptimizerOptions options = OptimizerOptions())
      : options_(options) {}

  /// Optimizes `plan`. The result preserves the root output columns (same
  /// ids, names and types).
  Result<PlanPtr> Optimize(const PlanPtr& plan, PlanContext* ctx) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  OptimizerOptions options_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_OPTIMIZER_OPTIMIZER_H_

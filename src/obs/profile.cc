#include "obs/profile.h"

#include <cstdio>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "plan/plan_fingerprint.h"
#include "plan/plan_printer.h"

namespace fusiondb {

namespace {

void WriteMetrics(const ExecMetrics& m, JsonWriter* w) {
  w->BeginObject();
  w->Field("bytes_scanned", m.bytes_scanned);
  w->Field("rows_scanned", m.rows_scanned);
  w->Field("partitions_scanned", m.partitions_scanned);
  w->Field("partitions_pruned", m.partitions_pruned);
  w->Field("runtime_pruned_partitions", m.runtime_pruned_partitions);
  w->Field("runtime_pruned_bytes", m.runtime_pruned_bytes);
  w->Field("rows_produced", m.rows_produced);
  w->Field("peak_hash_bytes", m.peak_hash_bytes);
  w->Field("spool_bytes_written", m.spool_bytes_written);
  w->Field("spool_bytes_read", m.spool_bytes_read);
  w->EndObject();
}

void WriteStats(const OperatorStats& s, JsonWriter* w) {
  w->BeginObject();
  if (s.pipeline >= 0) w->Field("pipeline", static_cast<int64_t>(s.pipeline));
  w->Field("next_calls", s.next_calls);
  w->Field("chunks_in", s.chunks_in);
  w->Field("chunks_out", s.chunks_out);
  w->Field("rows_in", s.rows_in);
  w->Field("rows_out", s.rows_out);
  w->Field("open_ns", s.open_ns);
  w->Field("next_ns", s.next_ns);
  w->Field("self_ns", s.self_ns);
  w->Field("close_ns", s.close_ns);
  w->Field("peak_memory_bytes", s.peak_memory_bytes);
  w->Field("spool_hits", s.spool_hits);
  w->Field("spool_builds", s.spool_builds);
  w->Field("bytes_scanned", s.bytes_scanned);
  w->Field("partitions_pruned", s.partitions_pruned);
  w->Field("runtime_pruned_partitions", s.runtime_pruned_partitions);
  w->Field("runtime_pruned_bytes", s.runtime_pruned_bytes);
  w->EndObject();
}

/// Writes `plan` as a nested JSON tree, consuming preorder ids from
/// `counter` so each node lines up with its stats slot.
void WritePlanNode(const PlanPtr& plan,
                   const std::vector<OperatorStats>& stats, int* counter,
                   JsonWriter* w) {
  int id = (*counter)++;
  w->BeginObject();
  w->Field("id", static_cast<int64_t>(id));
  w->Field("kind", OpKindName(plan->kind()));
  w->Field("node", OptimizerTrace::DescribeNode(*plan));
  if (id >= 0 && static_cast<size_t>(id) < stats.size()) {
    w->Key("stats");
    WriteStats(stats[static_cast<size_t>(id)], w);
  }
  w->Key("children");
  w->BeginArray();
  for (const PlanPtr& c : plan->children()) {
    WritePlanNode(c, stats, counter, w);
  }
  w->EndArray();
  w->EndObject();
}

void WriteTrace(const OptimizerTrace& t, JsonWriter* w) {
  w->BeginObject();
  w->Key("phases");
  w->BeginArray();
  for (const PhaseTime& p : t.phase_times()) {
    w->BeginObject();
    w->Field("phase", p.phase);
    w->Field("wall_us", p.wall_us);
    w->EndObject();
  }
  w->EndArray();
  w->Key("rules");
  w->BeginArray();
  for (const RulePhaseStats& s : t.rule_stats()) {
    w->BeginObject();
    w->Field("phase", s.phase);
    w->Field("rule", s.rule);
    w->Field("attempts", s.attempts);
    w->Field("fired", s.fired);
    w->EndObject();
  }
  w->EndArray();
  w->Key("firings");
  w->BeginArray();
  for (const RuleFiring& f : t.firings()) {
    w->BeginObject();
    w->Field("phase", f.phase);
    w->Field("rule", f.rule);
    w->Field("anchor", f.anchor);
    w->Field("ops_before", static_cast<int64_t>(f.ops_before));
    w->Field("ops_after", static_cast<int64_t>(f.ops_after));
    if (!f.props.empty()) w->Field("props", f.props);
    w->EndObject();
  }
  w->EndArray();
  w->Key("fusion");
  w->BeginArray();
  for (const FusionStep& s : t.fusion_steps()) {
    w->BeginObject();
    w->Field("depth", static_cast<int64_t>(s.depth));
    w->Field("left", s.left);
    w->Field("right", s.right);
    w->Field("fused", s.fused);
    w->Field("outcome", s.outcome);
    w->EndObject();
  }
  w->EndArray();
  w->Key("cost_decisions");
  w->BeginArray();
  for (const CostDecision& d : t.cost_decisions()) {
    w->BeginObject();
    w->Field("anchor", d.anchor);
    // Hex-rendered: a raw uint64 does not fit JsonWriter's int64 (and JSON
    // numbers past 2^53 lose precision anyway).
    w->Field("fingerprint", FingerprintToString(d.fingerprint));
    w->Field("consumers", static_cast<int64_t>(d.consumers));
    w->Field("solo_bytes", d.solo_bytes);
    w->Field("shared_bytes", d.shared_bytes);
    w->Field("shared", d.shared);
    w->EndObject();
  }
  w->EndArray();
  if (t.dropped_fusion_steps() > 0) {
    w->Field("dropped_fusion_steps", t.dropped_fusion_steps());
  }
  if (t.semantic_plans_verified() > 0 || t.semantic_obligations() > 0) {
    w->Field("semantic_plans_verified", t.semantic_plans_verified());
    w->Field("semantic_nodes_derived", t.semantic_nodes_derived());
    w->Field("semantic_obligations", t.semantic_obligations());
  }
  w->EndObject();
}

std::string FormatMs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) * 1e-6);
  return buf;
}

}  // namespace

QueryProfile MakeQueryProfile(std::string query, std::string config,
                              const PlanPtr& plan, const QueryResult& result,
                              const OptimizerTrace* trace) {
  QueryProfile p;
  p.query = std::move(query);
  p.config = std::move(config);
  p.plan = plan;
  p.operator_stats = result.operator_stats();
  p.pipelines = result.pipelines();
  p.metrics = result.metrics();
  p.wall_ms = result.wall_ms();
  p.trace = trace;
  return p;
}

std::string ProfileToJson(const QueryProfile& profile) {
  JsonWriter w;
  w.BeginObject();
  w.Field("schema_version", kTelemetrySchemaVersion);
  w.Field("query", profile.query);
  w.Field("config", profile.config);
  w.Field("wall_ms", profile.wall_ms);
  w.Key("metrics");
  WriteMetrics(profile.metrics, &w);
  if (profile.plan != nullptr) {
    w.Key("plan");
    int counter = 0;
    WritePlanNode(profile.plan, profile.operator_stats, &counter, &w);
  }
  if (!profile.pipelines.empty()) {
    w.Key("pipelines");
    w.BeginArray();
    for (const PipelineRecord& r : profile.pipelines) {
      w.BeginObject();
      w.Field("root_op_id", static_cast<int64_t>(r.root_op_id));
      w.Field("root_kind", r.root_kind);
      w.Field("ops_fused", static_cast<int64_t>(r.ops_fused));
      w.EndObject();
    }
    w.EndArray();
  }
  if (profile.sharing.consumers > 0) {
    w.Key("sharing");
    w.BeginObject();
    w.Field("session_id", static_cast<int64_t>(profile.sharing.session_id));
    w.Field("group_fingerprint",
            FingerprintToString(profile.sharing.group_fingerprint));
    w.Field("consumers", static_cast<int64_t>(profile.sharing.consumers));
    w.Field("shared_bytes_scanned", profile.sharing.shared_bytes_scanned);
    w.Field("attributed_bytes_scanned",
            profile.sharing.attributed_bytes_scanned);
    w.Field("isolated_static_bytes", profile.sharing.isolated_static_bytes);
    w.Field("queue_wait_us", profile.sharing.queue_wait_us);
    w.Field("plan_us", profile.sharing.plan_us);
    w.Field("execute_us", profile.sharing.execute_us);
    w.EndObject();
  }
  if (profile.trace != nullptr) {
    w.Key("trace");
    WriteTrace(*profile.trace, &w);
  }
  w.EndObject();
  return w.TakeString();
}

Status WriteProfileJson(const QueryProfile& profile, const std::string& path) {
  std::string json = ProfileToJson(profile);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::ExecutionError("cannot open profile output file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = written == json.size();
  ok = (std::fputc('\n', f) != EOF) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return Status::ExecutionError("failed writing profile to " + path);
  return Status::OK();
}

std::string ExplainAnalyze(const PlanPtr& plan, const QueryResult& result) {
  const std::vector<OperatorStats>& stats = result.operator_stats();
  if (stats.empty()) return PlanToString(plan);
  std::string text = PlanToString(plan, [&stats](const LogicalOp& op, int id) {
    (void)op;
    if (id < 0 || static_cast<size_t>(id) >= stats.size()) return std::string();
    const OperatorStats& s = stats[static_cast<size_t>(id)];
    std::string out = "  [#" + std::to_string(id) +
                      " rows=" + std::to_string(s.rows_out) +
                      " chunks=" + std::to_string(s.chunks_out) +
                      " next=" + FormatMs(s.next_ns) + "ms" +
                      " self=" + FormatMs(s.self_ns) + "ms";
    if (s.peak_memory_bytes > 0) {
      out += " mem=" + std::to_string(s.peak_memory_bytes) + "B";
    }
    if (s.spool_hits > 0) {
      out += " spool_hits=" + std::to_string(s.spool_hits);
    }
    if (s.partitions_pruned > 0) {
      // Static pruning is the plan's; runtime pruning is the hash joins'
      // (DESIGN.md §6.5).
      out += " pruned_static=" +
             std::to_string(s.partitions_pruned - s.runtime_pruned_partitions) +
             " pruned_runtime=" + std::to_string(s.runtime_pruned_partitions);
    }
    if (s.pipeline >= 0) {
      out += " pipeline=" + std::to_string(s.pipeline);
    }
    out += "]";
    return out;
  });
  // One line per compiled pipeline with its fused operator count
  // (DESIGN.md §13).
  const std::vector<PipelineRecord>& pipes = result.pipelines();
  if (!pipes.empty()) {
    text += "\npipelines:\n";
    for (size_t i = 0; i < pipes.size(); ++i) {
      const PipelineRecord& r = pipes[i];
      text += "  #" + std::to_string(i) + " root=op" +
              std::to_string(r.root_op_id) + " (" + r.root_kind +
              ") ops_fused=" + std::to_string(r.ops_fused) + "\n";
    }
  }
  return text;
}

}  // namespace fusiondb

// FusionDB — computation reuse via query fusion.
//
// Umbrella header exposing the public API:
//   - analysis/ : plan verification + derived semantic properties
//   - catalog/  : in-memory partitioned tables
//   - plan/     : logical algebra + PlanBuilder + plan fingerprints
//   - expr/     : scalar expressions
//   - optimizer/: rule-based optimizer with the Section-IV fusion rules
//   - fusion/   : the Fuse(P1, P2) primitive itself
//   - exec/     : streaming executor + metrics + fan-out execution
//   - obs/      : profiling, optimizer trace, service metrics, query log
//   - server/   : concurrent query sessions with cross-query fusion
//   - sql/      : SQL front end (lexer, parser, binder, diagnostics)
//   - engine/   : the Engine facade tying all of the above together
//   - tpcds/    : benchmark substrate (schema, datagen, query suite)
#ifndef FUSIONDB_FUSIONDB_H_
#define FUSIONDB_FUSIONDB_H_

#include "analysis/plan_props.h"
#include "analysis/semantic_ledger.h"
#include "analysis/semantic_verifier.h"
#include "catalog/catalog.h"
#include "engine/engine.h"
#include "exec/executor.h"
#include "exec/fanout.h"
#include "expr/expr_builder.h"
#include "expr/simplifier.h"
#include "fusion/fuse.h"
#include "fusion/fuse_across.h"
#include "obs/metrics.h"
#include "obs/optimizer_trace.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "optimizer/optimizer.h"
#include "plan/multi_plan.h"
#include "plan/plan_builder.h"
#include "plan/plan_fingerprint.h"
#include "plan/plan_printer.h"
#include "server/session_manager.h"
#include "sql/sql.h"
#include "tpcds/tpcds.h"

#endif  // FUSIONDB_FUSIONDB_H_

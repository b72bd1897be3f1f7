// TPC-DS-shaped benchmark substrate.
//
// The paper evaluates on TPC-DS at 3TB with the 7 largest fact tables
// date-partitioned (200-2000 partitions). We reproduce the schema subset
// its queries touch with a deterministic synthetic generator: row counts
// follow the TPC-DS SF-1 proportions scaled by `scale`, fact tables are
// partitioned monthly on their date surrogate key, and foreign keys carry a
// small NULL rate so the rewrites' NULL handling is exercised.
#ifndef FUSIONDB_TPCDS_TPCDS_H_
#define FUSIONDB_TPCDS_TPCDS_H_

#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "plan/logical_plan.h"

namespace fusiondb::tpcds {

struct TpcdsOptions {
  /// Fraction of TPC-DS SF-1 row counts (0.05 => ~144k store_sales rows).
  double scale = 0.05;
  uint64_t seed = 20260706;
};

/// Populates `catalog` with the full table set. Deterministic per options.
Status BuildTpcdsCatalog(const TpcdsOptions& options, Catalog* catalog);

/// One benchmark query: a named builder, which binds the query's SQL text
/// (queries.cc), plus the paper's classification of whether the fusion
/// rules change its plan.
struct TpcdsQuery {
  std::string name;
  /// Paper section that studies it ("" for filler workload queries).
  std::string paper_section;
  /// True when the paper reports the query's plan changes under fusion.
  bool fusion_applicable = false;
  std::function<Result<PlanPtr>(const Catalog&, PlanContext*)> build;
};

/// The full query suite, applicable queries first (Q01, Q09, Q23, Q28, Q30,
/// Q65 + intro variant, Q88, Q95), then the non-applicable filler workload
/// standing in for the rest of the 99-query benchmark.
const std::vector<TpcdsQuery>& Queries();

/// Lookup by name ("q01" ... ).
Result<TpcdsQuery> QueryByName(const std::string& name);

}  // namespace fusiondb::tpcds

#endif  // FUSIONDB_TPCDS_TPCDS_H_

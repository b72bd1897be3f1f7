// End-to-end equivalence: every TPC-DS query must return identical results
// under the baseline and fused optimizer configurations, the fused plan of
// an applicable query must scan no more static bytes than the baseline, and
// filler queries' plans must be untouched by the fusion rules. Static bytes
// (ExecMetrics::StaticBytes) are what the plan's own pruning admits; the
// bytes a run decodes never exceed them, and may be fewer once runtime join
// filters skip partitions (DESIGN.md §6.5).
#include <map>

#include <gtest/gtest.h>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::SharedTpcds;
using testutil::Unwrap;

struct Case {
  std::string query;
  double scale;
};

class TpcdsEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(TpcdsEquivalenceTest, BaselineMatchesFused) {
  const Case& c = GetParam();
  const Catalog& catalog = SharedTpcds(c.scale);
  tpcds::TpcdsQuery query = Unwrap(tpcds::QueryByName(c.query));

  PlanContext ctx;
  PlanPtr plan = Unwrap(query.build(catalog, &ctx));

  PlanPtr baseline =
      Unwrap(Optimizer(OptimizerOptions::Baseline()).Optimize(plan, &ctx));
  PlanPtr fused =
      Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));

  QueryResult base_result = MustExecute(baseline);
  QueryResult fused_result = MustExecute(fused);

  EXPECT_TRUE(ResultsEquivalent(base_result, fused_result))
      << "query " << c.query << " results diverge\nbaseline plan:\n"
      << PlanToString(baseline) << "\nfused plan:\n"
      << PlanToString(fused) << "\nbaseline result:\n"
      << base_result.ToString() << "\nfused result:\n"
      << fused_result.ToString();

  for (const QueryResult* r : {&base_result, &fused_result}) {
    EXPECT_LE(r->metrics().bytes_scanned, r->metrics().StaticBytes())
        << "query " << c.query << ": runtime pruning added bytes";
  }
  if (query.fusion_applicable) {
    EXPECT_LE(fused_result.metrics().StaticBytes(),
              base_result.metrics().StaticBytes())
        << "query " << c.query << ": fusion increased bytes scanned";
    EXPECT_LT(fused_result.metrics().StaticBytes(),
              base_result.metrics().StaticBytes())
        << "query " << c.query
        << ": applicable query shows no scan reduction\nfused plan:\n"
        << PlanToString(fused);
  } else {
    // Filler queries must be untouched by the fusion rules: identical
    // operator counts and scan volume.
    EXPECT_EQ(CountAllOps(baseline), CountAllOps(fused))
        << "query " << c.query << " plan changed unexpectedly";
    EXPECT_EQ(base_result.metrics().StaticBytes(),
              fused_result.metrics().StaticBytes());
    EXPECT_EQ(base_result.metrics().bytes_scanned,
              fused_result.metrics().bytes_scanned);
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    cases.push_back({q.name, 0.01});
  }
  // A second scale for the paper-studied queries to check the rewrites are
  // not data-size flukes.
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (q.fusion_applicable) cases.push_back({q.name, 0.003});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, TpcdsEquivalenceTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string scale = std::to_string(
          static_cast<int>(info.param.scale * 1000));
      return info.param.query + "_scale" + scale;
    });

}  // namespace
}  // namespace fusiondb

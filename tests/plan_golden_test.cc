// Plan-identity golden: the optimized plan of every TPC-DS query under each
// optimizer mode must match tests/plan_golden.txt byte for byte. Changes to
// expression identity, simplification or rule plumbing that are meant to be
// plan-neutral are checked against this file; a deliberate plan change
// regenerates it from the `plan_golden.actual.txt` this test writes into
// its working directory on a mismatch.
#include <fstream>
#include <sstream>

#include "test_util.h"

#ifndef FUSIONDB_SOURCE_DIR
#define FUSIONDB_SOURCE_DIR "."
#endif

namespace fusiondb {
namespace {

using testutil::SharedTpcds;
using testutil::Unwrap;

// The catalog scale the golden was rendered at.
constexpr double kGoldenScale = 0.01;

struct Mode {
  const char* name;
  OptimizerOptions options;
};

std::string RenderAllPlans() {
  const Catalog& catalog = SharedTpcds(kGoldenScale);
  const Mode modes[] = {
      {"baseline", OptimizerOptions::Baseline()},
      {"fused", OptimizerOptions::Fused()},
      {"spooling", OptimizerOptions::Spooling()},
  };
  std::ostringstream out;
  for (const tpcds::TpcdsQuery& query : tpcds::Queries()) {
    for (const Mode& mode : modes) {
      PlanContext ctx;
      PlanPtr plan = Unwrap(query.build(catalog, &ctx));
      PlanPtr optimized =
          Unwrap(Optimizer(mode.options).Optimize(plan, &ctx));
      out << "=== " << query.name << " " << mode.name << "\n"
          << PlanToString(optimized);
      if (out.str().back() != '\n') out << "\n";
    }
  }
  return out.str();
}

TEST(PlanGoldenTest, OptimizedPlansMatchGolden) {
  std::ifstream in(std::string(FUSIONDB_SOURCE_DIR) +
                   "/tests/plan_golden.txt");
  ASSERT_TRUE(in.is_open()) << "tests/plan_golden.txt missing";
  std::stringstream golden;
  golden << in.rdbuf();
  std::string actual = RenderAllPlans();
  if (actual != golden.str()) {
    std::ofstream("plan_golden.actual.txt") << actual;
    // Point at the first differing section so the failure is readable
    // without diffing the whole file.
    std::string g = golden.str();
    size_t i = 0;
    while (i < g.size() && i < actual.size() && g[i] == actual[i]) ++i;
    size_t section = actual.rfind("=== ", i);
    if (section == std::string::npos) section = 0;
    FAIL() << "optimized plans differ from tests/plan_golden.txt (full "
              "output in plan_golden.actual.txt); first difference in:\n"
           << actual.substr(section, 2000);
  }
}

}  // namespace
}  // namespace fusiondb

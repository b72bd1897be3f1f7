// SQL front end: golden parser/binder snapshots per grammar production,
// binder diagnostics with exact source positions, Engine facade behavior,
// and the TPC-DS round trip (SQL text vs hand-built constructors).
#include <string>
#include <vector>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::SharedTpcds;
using testutil::Unwrap;

/// Two tiny tables with all the golden queries' shapes: numbers(k, v, s)
/// with NULLs in v, and pairs(p_id, p_k) keyed by p_id.
const Catalog& GoldenCatalog() {
  static Catalog& catalog = *new Catalog();
  static bool built = false;
  if (built) return catalog;
  built = true;
  {
    TableBuilder b("numbers", {{"k", DataType::kInt64},
                               {"v", DataType::kFloat64},
                               {"s", DataType::kString}});
    FUSIONDB_EXPECT_OK(b.SetPrimaryKey({"k"}));
    for (int64_t k = 0; k < 20; ++k) {
      FUSIONDB_EXPECT_OK(b.AppendRow(
          {Value::Int64(k),
           k % 7 == 0 ? Value::Null(DataType::kFloat64)
                      : Value::Float64(static_cast<double>(k) * 1.5),
           Value::String("s" + std::to_string(k % 3))}));
    }
    FUSIONDB_EXPECT_OK(catalog.RegisterTable(Unwrap(b.Build())));
  }
  {
    TableBuilder b("pairs",
                   {{"p_id", DataType::kInt64}, {"p_k", DataType::kInt64}});
    FUSIONDB_EXPECT_OK(b.SetPrimaryKey({"p_id"}));
    for (int64_t i = 1; i <= 10; ++i) {
      FUSIONDB_EXPECT_OK(
          b.AppendRow({Value::Int64(i), Value::Int64((i * 3) % 20)}));
    }
    FUSIONDB_EXPECT_OK(catalog.RegisterTable(Unwrap(b.Build())));
  }
  return catalog;
}

// --- golden plan snapshots ---------------------------------------------------

struct GoldenCase {
  const char* name;
  const char* sql;
  const char* plan;  // exact PlanToString of the bound (unoptimized) plan
};

const GoldenCase kGolden[] = {
    {"projection_expr", "SELECT k, v * 2 AS dv FROM numbers",
     "Project [k#1:=#1, dv#4:=(#2 * 2)]  -> [k#1:int64, dv#4:float64]\n"
     "  Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"},
    {"where_not", "SELECT k FROM numbers WHERE v > 3 AND NOT (s = 's0')",
     "Project [k#1:=#1]  -> [k#1:int64]\n"
     "  Filter ((#2 > 3) AND NOT (#3 = 's0'))"
     "  -> [k#1:int64, v#2:float64, s#3:string]\n"
     "    Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"},
    {"group_having",
     "SELECT s, COUNT(*) AS n, SUM(v) AS sv FROM numbers GROUP BY s "
     "HAVING COUNT(*) > 2",
     "Project [s#3:=#3, n#4:=#4, sv#5:=#5]"
     "  -> [s#3:string, n#4:int64, sv#5:float64]\n"
     "  Filter (#4 > 2)  -> [s#3:string, count#4:int64, sum#5:float64]\n"
     "    Aggregate group=[#3] aggs=[count#4:=count(*), sum#5:=sum(#2)]"
     "  -> [s#3:string, count#4:int64, sum#5:float64]\n"
     "      Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"},
    {"order_limit", "SELECT k FROM numbers ORDER BY k DESC LIMIT 3",
     "Limit 3  -> [k#1:int64]\n"
     "  Sort  -> [k#1:int64]\n"
     "    Project [k#1:=#1]  -> [k#1:int64]\n"
     "      Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"},
    {"inner_join", "SELECT n.k, p.p_id FROM numbers n JOIN pairs p "
                   "ON n.k = p.p_k",
     "Project [k#1:=#1, p_id#4:=#4]  -> [k#1:int64, p_id#4:int64]\n"
     "  Join(Inner) on (#1 = #5)"
     "  -> [k#1:int64, v#2:float64, s#3:string, p_id#4:int64, p_k#5:int64]\n"
     "    Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"
     "    Scan(pairs)  -> [p_id#4:int64, p_k#5:int64]\n"},
    {"left_join", "SELECT n.k FROM numbers n LEFT JOIN pairs p "
                  "ON n.k = p.p_k",
     "Project [k#1:=#1]  -> [k#1:int64]\n"
     "  Join(Left) on (#1 = #5)"
     "  -> [k#1:int64, v#2:float64, s#3:string, p_id#4:int64, p_k#5:int64]\n"
     "    Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"
     "    Scan(pairs)  -> [p_id#4:int64, p_k#5:int64]\n"},
    // The subquery's pure-rename projection is unwrapped at bind time (the
    // scope carries the name; a Project here would hide the shape from the
    // fusion rules), so only the outer projection survives.
    {"from_subquery",
     "SELECT t.a FROM (SELECT k AS a FROM numbers WHERE k < 5) t",
     "Project [a#1:=#1]  -> [a#1:int64]\n"
     "  Filter (#1 < 5)  -> [k#1:int64, v#2:float64, s#3:string]\n"
     "    Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"},
    {"union_all_order",
     "SELECT k FROM numbers WHERE k < 3 UNION ALL "
     "SELECT k FROM numbers WHERE k > 16 ORDER BY 1",
     "Sort  -> [k#7:int64]\n"
     "  UnionAll  -> [k#7:int64]\n"
     "    Project [k#1:=#1]  -> [k#1:int64]\n"
     "      Filter (#1 < 3)  -> [k#1:int64, v#2:float64, s#3:string]\n"
     "        Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"
     "    Project [k#4:=#4]  -> [k#4:int64]\n"
     "      Filter (#4 > 16)  -> [k#4:int64, v#5:float64, s#6:string]\n"
     "        Scan(numbers)  -> [k#4:int64, v#5:float64, s#6:string]\n"},
    {"case_in_between",
     "SELECT CASE WHEN v IS NULL THEN 0.0 ELSE v END AS vv FROM numbers "
     "WHERE k BETWEEN 2 AND 8 AND s IN ('s0', 's1')",
     "Project [vv#4:=CASE WHEN (#2 IS NULL) THEN 0 ELSE #2 END]"
     "  -> [vv#4:float64]\n"
     "  Filter (((#1 >= 2) AND (#1 <= 8)) AND #3 IN ('s0', 's1'))"
     "  -> [k#1:int64, v#2:float64, s#3:string]\n"
     "    Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"},
    {"count_distinct", "SELECT COUNT(DISTINCT s) AS ds FROM numbers",
     "Project [ds#4:=#4]  -> [ds#4:int64]\n"
     "  Aggregate group=[] aggs=[count#4:=count distinct(#3)]"
     "  -> [count#4:int64]\n"
     "    Scan(numbers)  -> [k#1:int64, v#2:float64, s#3:string]\n"},
};

TEST(SqlGoldenTest, PlanSnapshots) {
  for (const GoldenCase& c : kGolden) {
    PlanContext ctx;
    sql::ParseResult result = sql::ParseAndBind(c.sql, GoldenCatalog(), &ctx);
    ASSERT_TRUE(result.ok()) << c.name << ": " << result.FormatErrors();
    EXPECT_EQ(PlanToString(result.plan), c.plan) << c.name;
  }
}

// --- binder diagnostics: taxonomy + exact source positions -------------------

struct ErrorCase {
  const char* sql;
  StatusCode code;
  const char* tag;  // "[sql-...]" taxonomy tag expected in the message
  size_t offset;    // byte offset the first diagnostic must point at
};

const ErrorCase kErrors[] = {
    {"SELEC k FROM numbers", StatusCode::kInvalidArgument, "[sql-syntax]", 0},
    {"SELECT k FROM numbers WHERE", StatusCode::kInvalidArgument,
     "[sql-syntax]", 27},
    {"SELECT nope FROM numbers", StatusCode::kPlanError,
     "[sql-unknown-column]", 7},
    {"SELECT k FROM nosuch", StatusCode::kPlanError, "[sql-unknown-table]",
     14},
    {"SELECT x.k FROM numbers n", StatusCode::kPlanError,
     "[sql-unknown-table]", 7},
    {"SELECT k FROM numbers a JOIN numbers b ON a.k = b.k",
     StatusCode::kPlanError, "[sql-ambiguous-column]", 7},
    {"SELECT n.k FROM numbers n JOIN pairs n ON n.k = n.p_k",
     StatusCode::kPlanError, "[sql-duplicate-alias]", 31},
    {"SELECT v FROM numbers GROUP BY s", StatusCode::kPlanError,
     "[sql-not-grouped]", 7},
    {"SELECT s FROM numbers ORDER BY nope", StatusCode::kPlanError,
     "[sql-order-by]", 31},
    {"SELECT SUM(SUM(v)) FROM numbers", StatusCode::kPlanError,
     "[sql-nested-aggregate]", 11},
    // Only the known aggregate functions exist; FOO( is a parse error at
    // the '(' because a bare identifier cannot be called.
    {"SELECT FOO(k) FROM numbers", StatusCode::kInvalidArgument,
     "[sql-syntax]", 10},
    {"SELECT SUM(s) FROM numbers", StatusCode::kTypeError, "[sql-type]", 11},
    {"SELECT k + s FROM numbers", StatusCode::kTypeError, "[sql-type]", 9},
    {"SELECT CASE WHEN k > 1 THEN 1 ELSE 's' END FROM numbers",
     StatusCode::kTypeError, "[sql-case-type]", 35},
    {"SELECT k FROM numbers UNION ALL SELECT k, s FROM numbers",
     StatusCode::kPlanError, "[sql-union-arity]", 32},
    {"SELECT k FROM numbers UNION ALL SELECT s FROM numbers",
     StatusCode::kTypeError, "[sql-union-type]", 32},
};

TEST(SqlDiagnosticsTest, ErrorTaxonomyAndPositions) {
  for (const ErrorCase& c : kErrors) {
    PlanContext ctx;
    sql::ParseResult result = sql::ParseAndBind(c.sql, GoldenCatalog(), &ctx);
    ASSERT_FALSE(result.ok()) << "unexpectedly bound: " << c.sql;
    ASSERT_FALSE(result.diagnostics.empty()) << c.sql;
    const sql::SqlDiagnostic& d = result.diagnostics.front();
    EXPECT_EQ(d.code, c.code) << c.sql << ": " << d.message;
    EXPECT_NE(d.message.find(c.tag), std::string::npos)
        << c.sql << ": " << d.message;
    EXPECT_EQ(d.offset, c.offset) << c.sql << ": " << d.message;
  }
}

TEST(SqlDiagnosticsTest, CaretSnippetFormat) {
  PlanContext ctx;
  sql::ParseResult result =
      sql::ParseAndBind("SELECT nope FROM numbers", GoldenCatalog(), &ctx);
  ASSERT_FALSE(result.ok());
  std::string rendered = result.FormatErrors();
  // sql:LINE:COL header (1-based), the offending line, and a caret under
  // byte offset 7.
  EXPECT_NE(rendered.find("sql:1:8:"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("SELECT nope FROM numbers"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("       ^"), std::string::npos) << rendered;
}

// --- Engine facade -----------------------------------------------------------

TEST(EngineTest, ModesAgreeOnSqlQuery) {
  Engine engine(GoldenCatalog());
  const std::string sql =
      "SELECT s, COUNT(*) AS n, SUM(v) AS sv FROM numbers "
      "GROUP BY s ORDER BY 1, 2, 3";
  QueryResult baseline =
      Unwrap(engine.ExecuteSql(sql, QueryOptions::Baseline()));
  EXPECT_EQ(baseline.num_rows(), 3);
  for (const char* mode : {"fused", "spooling"}) {
    QueryOptions options = Unwrap(QueryOptions::FromModeName(mode));
    QueryResult result = Unwrap(engine.ExecuteSql(sql, options));
    EXPECT_TRUE(ResultsEqualOrdered(baseline, result)) << mode;
  }
}

TEST(EngineTest, FromModeNameRejectsUnknown) {
  for (const char* mode : {"turbo", "adaptive"}) {
    SCOPED_TRACE(mode);
    auto result = QueryOptions::FromModeName(mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(
                  "(expected baseline, fused or spooling)"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(EngineTest, PrepareReportsDiagnostics) {
  Engine engine(GoldenCatalog());
  sql::ParseResult parse;
  auto prepared = engine.Prepare("SELECT nope FROM numbers", &parse);
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kPlanError);
  ASSERT_FALSE(parse.diagnostics.empty());
  EXPECT_EQ(parse.diagnostics.front().offset, 7u);
}

TEST(EngineTest, PrepareFromPlanBuilder) {
  Engine engine(SharedTpcds());
  tpcds::TpcdsQuery q03 = Unwrap(tpcds::QueryByName("q03"));
  PreparedQuery query = Unwrap(engine.Prepare(q03.build));
  QueryResult result = Unwrap(engine.Execute(&query));
  EXPECT_GE(result.num_rows(), 0);
}

// --- TPC-DS round trip: SQL text == hand-built constructors ------------------

struct RoundTripCase {
  const char* name;
  const char* sql;
};

const RoundTripCase kRoundTrips[] = {
    {"q03",
     "SELECT d.d_year, i.i_brand_id, i.i_brand, "
     "SUM(ss.ss_ext_sales_price) AS sum_agg "
     "FROM store_sales ss "
     "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
     "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
     "WHERE d.d_moy = 11 AND i.i_manufact_id <= 50 "
     "GROUP BY d.d_year, i.i_brand_id, i.i_brand "
     "ORDER BY d_year, sum_agg DESC, i_brand_id LIMIT 100"},
    {"q07",
     "SELECT i.i_item_id, AVG(ss.ss_quantity) AS agg1, "
     "AVG(ss.ss_list_price) AS agg2, AVG(ss.ss_coupon_amt) AS agg3, "
     "AVG(ss.ss_sales_price) AS agg4 "
     "FROM store_sales ss "
     "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
     "JOIN household_demographics hd ON ss.ss_hdemo_sk = hd.hd_demo_sk "
     "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
     "WHERE d.d_year = 2000 AND hd.hd_dep_count = 3 "
     "GROUP BY i.i_item_id ORDER BY i_item_id LIMIT 100"},
    {"q26",
     "SELECT i.i_item_id, AVG(cs.cs_quantity) AS agg1, "
     "AVG(cs.cs_list_price) AS agg2, AVG(cs.cs_sales_price) AS agg3 "
     "FROM catalog_sales cs "
     "JOIN date_dim d ON cs.cs_sold_date_sk = d.d_date_sk "
     "JOIN item i ON cs.cs_item_sk = i.i_item_sk "
     "WHERE d.d_year = 2000 "
     "GROUP BY i.i_item_id ORDER BY i_item_id LIMIT 100"},
};

TEST(SqlRoundTripTest, TpcdsSqlMatchesHandBuiltPlans) {
  Engine engine(SharedTpcds());
  for (const RoundTripCase& c : kRoundTrips) {
    tpcds::TpcdsQuery reference = Unwrap(tpcds::QueryByName(c.name));
    PreparedQuery hand = Unwrap(engine.Prepare(reference.build));
    QueryResult hand_result =
        Unwrap(engine.Execute(&hand, QueryOptions::Fused()));
    PreparedQuery from_sql = Unwrap(engine.Prepare(c.sql));
    QueryResult sql_result =
        Unwrap(engine.Execute(&from_sql, QueryOptions::Fused()));
    ASSERT_EQ(hand_result.num_rows(), sql_result.num_rows()) << c.name;
    // Byte-identical rendered rows; both queries totally order their output
    // (the shared sort keys are unique), so compare them sorted to stay
    // independent of tie order inside the executor.
    EXPECT_EQ(hand_result.RenderRows(true), sql_result.RenderRows(true))
        << c.name;
  }
}

}  // namespace
}  // namespace fusiondb

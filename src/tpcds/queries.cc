// The benchmark queries as SQL text, bound through the SQL front end
// (sql/sql.h) like any user query. Each mirrors the published (or
// paper-simplified) TPC-DS text; constants are adapted to the synthetic
// generator so every query returns non-trivial results at small scale
// factors. The front end has no WITH: a query that reads a CTE twice
// composes its body into the text twice, which is what the paper's
// fusion rules then find and share.
#include <algorithm>
#include <cstdio>
#include <string>

#include "common/check.h"
#include "sql/sql.h"
#include "tpcds/tpcds.h"

namespace fusiondb::tpcds {

namespace {

/// `v` as a SQL decimal literal that parses back to exactly `v`.
std::string Dbl(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string text = buf;
  FUSIONDB_CHECK(text.find_first_of("einf") == std::string::npos,
                 "literal needs an exponent the lexer does not accept");
  if (text.find('.') == std::string::npos) text += ".0";
  return text;
}

std::string Int(int64_t v) { return std::to_string(v); }

/// Row count of `table`, or 0 when the catalog lacks it (binding then
/// reports the unknown table).
int64_t Rows(const Catalog& catalog, const char* table) {
  auto t = catalog.GetTable(table);
  return t.ok() ? (*t)->num_rows() : 0;
}

// --- Section V.A: window-rewrite queries -------------------------------------

/// Q01: store returns above 1.2x the store average. The correlated scalar
/// subquery binds to an Apply; decorrelation then hands GroupByJoinToWindow
/// its Join(ctr1, GroupBy(ctr2)) pattern.
std::string Q01(const Catalog&) {
  const std::string ctr =
      "SELECT sr.sr_customer_sk, sr.sr_store_sk, "
      "SUM(sr.sr_return_amt) AS ctr_total_return "
      "FROM store_returns sr "
      "JOIN date_dim d ON sr.sr_returned_date_sk = d.d_date_sk "
      "WHERE d.d_year = 2000 GROUP BY sr.sr_customer_sk, sr.sr_store_sk";
  return "SELECT c.c_customer_id FROM (" + ctr + ") ctr1 "
         "JOIN store s ON ctr1.sr_store_sk = s.s_store_sk "
         "JOIN customer c ON ctr1.sr_customer_sk = c.c_customer_sk "
         "WHERE ctr1.ctr_total_return > 1.2 * "
         "(SELECT AVG(ctr2.ctr_total_return) AS avg_ctr FROM (" + ctr +
         ") ctr2 WHERE ctr2.sr_store_sk = ctr1.sr_store_sk) "
         "AND s.s_state = 'TN' ORDER BY c_customer_id LIMIT 100";
}

/// Q30: the web-return variant of Q01, correlated on the customer's state.
std::string Q30(const Catalog&) {
  const std::string ctr =
      "SELECT wr.wr_returning_customer_sk, ca.ca_state, "
      "SUM(wr.wr_return_amt) AS ctr_total_return "
      "FROM web_returns wr "
      "JOIN date_dim d ON wr.wr_returned_date_sk = d.d_date_sk "
      "JOIN (SELECT c.c_customer_sk, ca.ca_state FROM customer c "
      "JOIN customer_address ca ON c.c_current_addr_sk = ca.ca_address_sk) ca "
      "ON wr.wr_returning_customer_sk = ca.c_customer_sk "
      "WHERE d.d_year = 2002 "
      "GROUP BY wr.wr_returning_customer_sk, ca.ca_state";
  return "SELECT c.c_customer_id, c.c_first_name, c.c_last_name "
         "FROM (" + ctr + ") ctr1 "
         "JOIN customer c ON ctr1.wr_returning_customer_sk = c.c_customer_sk "
         "WHERE ctr1.ctr_total_return > 1.2 * "
         "(SELECT AVG(ctr2.ctr_total_return) AS avg_ctr FROM (" + ctr +
         ") ctr2 WHERE ctr2.ca_state = ctr1.ca_state) "
         "ORDER BY c_customer_id LIMIT 100";
}

/// Q65 over d_month_seq [seq_lo, seq_hi]: items selling at <=10% of their
/// store's average revenue. The revenue block is the paper's common
/// subexpression.
std::string Q65Like(int64_t seq_lo, int64_t seq_hi) {
  const std::string revenue =
      "SELECT ss.ss_store_sk, ss.ss_item_sk, "
      "SUM(ss.ss_sales_price) AS revenue FROM store_sales ss "
      "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
      "WHERE d.d_month_seq BETWEEN " + Int(seq_lo) + " AND " + Int(seq_hi) +
      " GROUP BY ss.ss_store_sk, ss.ss_item_sk";
  return "SELECT s.s_store_name, i.i_item_desc, sc.revenue "
         "FROM (" + revenue + ") sc "
         "JOIN (SELECT sa.ss_store_sk, AVG(sa.revenue) AS ave FROM (" +
         revenue + ") sa GROUP BY sa.ss_store_sk) sb "
         "ON sc.ss_store_sk = sb.ss_store_sk AND sc.revenue <= 0.1 * sb.ave "
         "JOIN store s ON sc.ss_store_sk = s.s_store_sk "
         "JOIN item i ON sc.ss_item_sk = i.i_item_sk "
         "ORDER BY s_store_name, i_item_desc LIMIT 100";
}

std::string Q65(const Catalog&) { return Q65Like(1212, 1223); }

/// The Section I variant of Q65: a 36-month window.
std::string Q65V(const Catalog&) { return Q65Like(1212, 1247); }

// --- Section V.B: scalar-aggregate merges ------------------------------------

/// Q09: five quantity buckets, each three separate scalar subqueries over
/// store_sales (15 scans), cross-joined to one reason row. The paper's
/// literal thresholds are 3TB-specific; an equivalent selectivity comes
/// from the table's cardinality.
std::string Q09(const Catalog& catalog) {
  const std::string threshold = Int(Rows(catalog, "store_sales") / 6);
  std::string select;
  std::string from = " FROM reason r";
  for (int b = 1; b <= 5; ++b) {
    const std::string n = Int(b);
    const std::string where = " FROM store_sales ss WHERE ss.ss_quantity "
                              "BETWEEN " + Int(20 * b - 19) + " AND " +
                              Int(20 * b) + ")";
    from += " JOIN (SELECT COUNT(*) AS cnt" + n + where + " c" + n +
            " ON TRUE JOIN (SELECT AVG(ss.ss_ext_discount_amt) AS avg_disc" +
            n + where + " d" + n +
            " ON TRUE JOIN (SELECT AVG(ss.ss_net_profit) AS avg_profit" + n +
            where + " p" + n + " ON TRUE";
    select += std::string(b > 1 ? ", " : "") + "CASE WHEN c" + n + ".cnt" +
              n + " > " + threshold + " THEN d" + n + ".avg_disc" + n +
              " ELSE p" + n + ".avg_profit" + n + " END AS bucket" + n;
  }
  return "SELECT " + select + from + " WHERE r.r_reason_sk = 1";
}

/// Q28: six buckets of list-price statistics with a DISTINCT aggregate.
std::string Q28(const Catalog&) {
  std::string select;
  std::string from;
  for (int b = 0; b < 6; ++b) {
    const std::string n = Int(b + 1);
    const double lp = 10.0 * b + 8.0;
    const double cp = 100.0 * b + 40.0;
    const double wc = 10.0 * b + 5.0;
    select += std::string(b > 0 ? ", " : "") + "b" + n + ".lp_avg" + n +
              ", b" + n + ".lp_cnt" + n + ", b" + n + ".lp_cntd" + n;
    from += std::string(b > 0 ? " JOIN " : " FROM ") +
            "(SELECT AVG(ss.ss_list_price) AS lp_avg" + n +
            ", COUNT(ss.ss_list_price) AS lp_cnt" + n +
            ", COUNT(DISTINCT ss.ss_list_price) AS lp_cntd" + n +
            " FROM store_sales ss WHERE ss.ss_quantity BETWEEN " +
            Int(5 * b) + " AND " + Int(5 * b + 5) +
            " AND (ss.ss_list_price BETWEEN " + Dbl(lp) + " AND " +
            Dbl(lp + 100.0) + " OR ss.ss_coupon_amt BETWEEN " + Dbl(cp) +
            " AND " + Dbl(cp + 1000.0) + " OR ss.ss_wholesale_cost BETWEEN " +
            Dbl(wc) + " AND " + Dbl(wc + 80.0) + ")) b" + n +
            (b > 0 ? " ON TRUE" : "");
  }
  return "SELECT " + select + from;
}

/// Q88: eight half-hour store traffic counts, 8:30 to 12:30.
std::string Q88(const Catalog&) {
  std::string select;
  std::string from;
  for (int b = 0; b < 8; ++b) {
    const std::string n = Int(b + 1);
    const int64_t hour = 8 + (b + 1) / 2;
    const bool second_half = (b + 1) % 2 == 1;  // b=0 -> 8:30-9:00
    select += std::string(b > 0 ? ", " : "") + "s" + n + ".h" + n;
    from += std::string(b > 0 ? " JOIN " : " FROM ") +
            "(SELECT COUNT(*) AS h" + n + " FROM store_sales ss "
            "JOIN household_demographics hd ON ss.ss_hdemo_sk = hd.hd_demo_sk "
            "JOIN time_dim t ON ss.ss_sold_time_sk = t.t_time_sk "
            "JOIN store st ON ss.ss_store_sk = st.s_store_sk "
            "WHERE ((hd.hd_dep_count = 4 AND hd.hd_vehicle_count <= 3) OR "
            "(hd.hd_dep_count = 2 AND hd.hd_vehicle_count <= 1)) "
            "AND t.t_hour = " + Int(hour) + " AND t.t_minute " +
            (second_half ? ">= 30" : "< 30") +
            " AND st.s_store_name = 'ese') s" + n + (b > 0 ? " ON TRUE" : "");
  }
  return "SELECT " + select + from;
}

// --- Section V.C: union refactoring ------------------------------------------

/// Q23: catalog and web sales of frequently sold items to the best
/// customers, unioned. Each branch reads both CTEs through IN subqueries.
/// Frequency and spend thresholds keep the benchmark's selectivity at this
/// synthetic scale.
std::string Q23(const Catalog& catalog) {
  const int64_t ss_rows = Rows(catalog, "store_sales");
  const int64_t freq_threshold = std::max<int64_t>(
      2, ss_rows / std::max<int64_t>(1, Rows(catalog, "item")) / 3);
  const double best_threshold =
      60000.0 * (static_cast<double>(ss_rows) / 2880404.0 / 0.05);
  const std::string frequent_items =
      "SELECT ss.ss_item_sk FROM store_sales ss "
      "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
      "WHERE d.d_year IN (1999, 2000, 2001, 2002) GROUP BY ss.ss_item_sk "
      "HAVING COUNT(*) > " + Int(freq_threshold);
  const std::string best_customers =
      "SELECT ss.ss_customer_sk FROM store_sales ss "
      "GROUP BY ss.ss_customer_sk "
      "HAVING SUM(ss.ss_quantity * ss.ss_sales_price) > " +
      Dbl(best_threshold);
  auto branch = [&](const std::string& fact, const std::string& p) {
    return "SELECT f." + p + "_quantity * f." + p + "_list_price AS sales "
           "FROM " + fact + " f JOIN date_dim d ON f." + p +
           "_sold_date_sk = d.d_date_sk "
           "WHERE d.d_year = 1999 AND d.d_moy = 1 "
           "AND f." + p + "_item_sk IN (" + frequent_items + ") "
           "AND f." + p + "_bill_customer_sk IN (" + best_customers + ")";
  };
  return "SELECT SUM(x.sales) AS total_sales FROM (" +
         branch("catalog_sales", "cs") + " UNION ALL " +
         branch("web_sales", "ws") + ") x";
}

// --- Section V.D: relational-aggregate unification ---------------------------

/// Q95: web orders shipped from several warehouses and returned.
std::string Q95(const Catalog&) {
  const std::string ws_wh =
      "SELECT ws1.ws_order_number AS ws_wh_number FROM web_sales ws1 "
      "JOIN web_sales ws2 ON ws1.ws_order_number = ws2.ws_order_number "
      "AND ws1.ws_warehouse_sk <> ws2.ws_warehouse_sk";
  return "SELECT COUNT(DISTINCT ws.ws_order_number) AS order_count, "
         "SUM(ws.ws_ext_ship_cost) AS total_shipping_cost, "
         "SUM(ws.ws_net_profit) AS total_net_profit FROM web_sales ws "
         "JOIN date_dim d ON ws.ws_sold_date_sk = d.d_date_sk "
         "JOIN customer_address ca ON ws.ws_ship_addr_sk = ca.ca_address_sk "
         "JOIN web_site w ON ws.ws_web_site_sk = w.web_site_sk "
         "WHERE d.d_year = 1999 AND d.d_moy BETWEEN 2 AND 4 "
         "AND ca.ca_state = 'IL' AND w.web_company_name = 'pri' "
         "AND ws.ws_order_number IN (" + ws_wh + ") "
         "AND ws.ws_order_number IN (SELECT wr.wr_order_number FROM (" +
         ws_wh + ") wh JOIN web_returns wr "
         "ON wh.ws_wh_number = wr.wr_order_number)";
}

// --- Filler workload: star-join aggregations the fusion rules leave alone ----

/// Q03: brand revenue for a manufacturer range in November.
std::string Q03(const Catalog&) {
  return "SELECT d.d_year, i.i_brand_id, i.i_brand, "
         "SUM(ss.ss_ext_sales_price) AS sum_agg FROM store_sales ss "
         "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
         "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
         "WHERE d.d_moy = 11 AND i.i_manufact_id <= 50 "
         "GROUP BY d.d_year, i.i_brand_id, i.i_brand "
         "ORDER BY d_year, sum_agg DESC, i_brand_id LIMIT 100";
}

/// Q07: demographic item averages.
std::string Q07(const Catalog&) {
  return "SELECT i.i_item_id, AVG(ss.ss_quantity) AS agg1, "
         "AVG(ss.ss_list_price) AS agg2, AVG(ss.ss_coupon_amt) AS agg3, "
         "AVG(ss.ss_sales_price) AS agg4 FROM store_sales ss "
         "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
         "JOIN household_demographics hd ON ss.ss_hdemo_sk = hd.hd_demo_sk "
         "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
         "WHERE d.d_year = 2000 AND hd.hd_dep_count = 3 "
         "GROUP BY i.i_item_id ORDER BY i_item_id LIMIT 100";
}

/// Q19: brand revenue in one category for one month.
std::string Q19(const Catalog&) {
  return "SELECT i.i_brand_id, i.i_brand, "
         "SUM(ss.ss_ext_sales_price) AS ext_price FROM store_sales ss "
         "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
         "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
         "JOIN customer c ON ss.ss_customer_sk = c.c_customer_sk "
         "WHERE d.d_moy = 11 AND d.d_year = 1999 AND i.i_category = 'Books' "
         "GROUP BY i.i_brand_id, i.i_brand "
         "ORDER BY ext_price DESC, i_brand_id LIMIT 100";
}

/// Q26: catalog item averages.
std::string Q26(const Catalog&) {
  return "SELECT i.i_item_id, AVG(cs.cs_quantity) AS agg1, "
         "AVG(cs.cs_list_price) AS agg2, AVG(cs.cs_sales_price) AS agg3 "
         "FROM catalog_sales cs "
         "JOIN date_dim d ON cs.cs_sold_date_sk = d.d_date_sk "
         "JOIN item i ON cs.cs_item_sk = i.i_item_sk "
         "WHERE d.d_year = 2000 "
         "GROUP BY i.i_item_id ORDER BY i_item_id LIMIT 100";
}

/// The shape of Q42/Q52/Q55: November revenue of `year` grouped by two
/// item attributes, named `revenue_name`, after an optional item filter.
std::string NovemberRevenue(int64_t year, const std::string& id_column,
                            const std::string& name_column,
                            const std::string& revenue_name,
                            const std::string& item_filter,
                            const std::string& tie_break) {
  return "SELECT i." + id_column + ", i." + name_column +
         ", SUM(ss.ss_ext_sales_price) AS " + revenue_name +
         " FROM store_sales ss "
         "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
         "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
         "WHERE d.d_moy = 11 AND d.d_year = " + Int(year) + item_filter +
         " GROUP BY i." + id_column + ", i." + name_column + " ORDER BY " +
         revenue_name + " DESC" + tie_break + " LIMIT 100";
}

std::string Q42(const Catalog&) {
  return NovemberRevenue(2000, "i_category_id", "i_category", "revenue", "",
                         "");
}

std::string Q52(const Catalog&) {
  return NovemberRevenue(2000, "i_brand_id", "i_brand", "revenue", "", "");
}

std::string Q55(const Catalog&) {
  return NovemberRevenue(2001, "i_brand_id", "i_brand", "ext_price",
                         " AND i.i_manufact_id = 28", ", i_brand_id");
}

/// Q96: evening shoppers count.
std::string Q96(const Catalog&) {
  return "SELECT COUNT(*) AS cnt FROM store_sales ss "
         "JOIN household_demographics hd ON ss.ss_hdemo_sk = hd.hd_demo_sk "
         "JOIN time_dim t ON ss.ss_sold_time_sk = t.t_time_sk "
         "JOIN store s ON ss.ss_store_sk = s.s_store_sk "
         "WHERE hd.hd_dep_count = 5 AND t.t_hour = 20 "
         "AND s.s_store_name = 'ese'";
}

/// Q99-like: web shipping volume by warehouse.
std::string Q99(const Catalog&) {
  return "SELECT w.w_warehouse_name, COUNT(*) AS orders, "
         "SUM(ws.ws_ext_ship_cost) AS ship_cost FROM web_sales ws "
         "JOIN date_dim d ON ws.ws_sold_date_sk = d.d_date_sk "
         "JOIN warehouse w ON ws.ws_warehouse_sk = w.w_warehouse_sk "
         "WHERE d.d_year = 2001 "
         "GROUP BY w.w_warehouse_name ORDER BY w_warehouse_name";
}

/// A TpcdsQuery::build that binds the text `sql` renders for the catalog.
auto FromSql(std::string (*sql)(const Catalog&)) {
  return [sql](const Catalog& catalog, PlanContext* ctx) {
    return sql::BindSql(sql(catalog), catalog, ctx);
  };
}

}  // namespace

const std::vector<TpcdsQuery>& Queries() {
  static const std::vector<TpcdsQuery>& queries = *new std::vector<TpcdsQuery>{
      // The paper's studied queries (plans change under fusion).
      {"q01", "V.A", true, FromSql(Q01)},
      {"q09", "V.B", true, FromSql(Q09)},
      {"q23", "V.C", true, FromSql(Q23)},
      {"q28", "V.B", true, FromSql(Q28)},
      {"q30", "V.A", true, FromSql(Q30)},
      {"q65", "V.A", true, FromSql(Q65)},
      {"q65v", "I", true, FromSql(Q65V)},
      {"q88", "V.B", true, FromSql(Q88)},
      {"q95", "V.D", true, FromSql(Q95)},
      // Filler workload (plans unchanged).
      {"q03", "", false, FromSql(Q03)},
      {"q07", "", false, FromSql(Q07)},
      {"q19", "", false, FromSql(Q19)},
      {"q26", "", false, FromSql(Q26)},
      {"q42", "", false, FromSql(Q42)},
      {"q52", "", false, FromSql(Q52)},
      {"q55", "", false, FromSql(Q55)},
      {"q96", "", false, FromSql(Q96)},
      {"q99", "", false, FromSql(Q99)},
  };
  return queries;
}

Result<TpcdsQuery> QueryByName(const std::string& name) {
  for (const TpcdsQuery& q : Queries()) {
    if (q.name == name) return q;
  }
  return Status::InvalidArgument("no such TPC-DS query: " + name);
}

}  // namespace fusiondb::tpcds

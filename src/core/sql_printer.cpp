#include "core/sql_printer.h"

#include "util/string_util.h"

namespace hypdb {
namespace {

std::string WhereClause(const AggQuery& query) {
  if (query.where.empty()) return "";
  std::vector<std::string> terms;
  for (const auto& [attr, values] : query.where) {
    std::vector<std::string> quoted;
    for (const auto& v : values) quoted.push_back("'" + v + "'");
    terms.push_back(attr + " IN (" + Join(quoted, ", ") + ")");
  }
  return "  WHERE " + Join(terms, " AND ") + "\n";
}

std::vector<std::string> AvgAliases(const AggQuery& query) {
  std::vector<std::string> aliases;
  for (size_t i = 0; i < query.outcomes.size(); ++i) {
    aliases.push_back("avg(" + query.outcomes[i] + ") AS Avg" +
                      std::to_string(i + 1));
  }
  return aliases;
}

}  // namespace

std::string RewrittenTotalSql(const AggQuery& query,
                              const std::vector<std::string>& covariates) {
  // Grouping attributes X ride along with Z (Listing 2 groups Blocks by
  // T, Z, X and Weights by Z, X).
  std::vector<std::string> zx = covariates;
  zx.insert(zx.end(), query.grouping.begin(), query.grouping.end());
  std::string zx_list = Join(zx, ", ");
  std::vector<std::string> select_blocks = {query.treatment};
  if (!zx.empty()) select_blocks.push_back(zx_list);
  std::vector<std::string> sums;
  for (size_t i = 0; i < query.outcomes.size(); ++i) {
    sums.push_back("sum(Avg" + std::to_string(i + 1) + " * W)");
  }

  std::string join_cond;
  {
    std::vector<std::string> eq;
    for (const auto& a : zx) {
      eq.push_back("Blocks." + a + " = Weights." + a);
    }
    join_cond = eq.empty() ? "1 = 1" : Join(eq, " AND\n      ");
  }

  std::string out_group = query.treatment;
  if (!query.grouping.empty()) {
    out_group += ", " + Join(query.grouping, ", ");
  }

  std::string sql;
  sql += "WITH Blocks AS (\n";
  sql += "  SELECT " + Join(select_blocks, ", ") + ",\n         " +
         Join(AvgAliases(query), ", ") + "\n";
  sql += "  FROM " + query.table_name + "\n";
  sql += WhereClause(query);
  sql += "  GROUP BY " + query.treatment +
         (zx.empty() ? "" : ", " + zx_list) + "\n";
  sql += "),\nWeights AS (\n";
  sql += "  SELECT " + (zx.empty() ? std::string("1 AS One") : zx_list) +
         ", count(*) * 1.0 / (SELECT count(*) FROM " + query.table_name +
         ") AS W\n";
  sql += "  FROM " + query.table_name + "\n";
  sql += WhereClause(query);
  if (!zx.empty()) sql += "  GROUP BY " + zx_list + "\n";
  sql += "  HAVING count(DISTINCT " + query.treatment + ") = 2\n";
  sql += ")\n";
  sql += "SELECT " + query.treatment +
         (query.grouping.empty() ? "" : ", " + Join(query.grouping, ", ")) +
         ", " + Join(sums, ", ") + "\n";
  sql += "FROM Blocks, Weights\n";
  sql += "WHERE " + join_cond + "\n";
  sql += "GROUP BY " + out_group;
  return sql;
}

std::string RewrittenDirectSql(const AggQuery& query,
                               const std::vector<std::string>& covariates,
                               const std::vector<std::string>& mediators,
                               const std::string& reference) {
  std::string m_list = Join(mediators, ", ");
  std::string z_list = Join(covariates, ", ");
  std::vector<std::string> sums;
  for (size_t i = 0; i < query.outcomes.size(); ++i) {
    sums.push_back("sum(Avg" + std::to_string(i + 1) + " * W)");
  }

  // Eq. 3: Σ_{z,m} E[Y|T,m] · Pr(m|T=ref,z) · Pr(z).
  std::string sql;
  sql += "WITH MBlocks AS (\n";
  sql += "  SELECT " + query.treatment +
         (mediators.empty() ? "" : ", " + m_list) + ",\n         " +
         Join(AvgAliases(query), ", ") + "\n";
  sql += "  FROM " + query.table_name + "\n";
  sql += WhereClause(query);
  sql += "  GROUP BY " + query.treatment +
         (mediators.empty() ? "" : ", " + m_list) + "\n";
  sql += "),\nMWeights AS (\n";
  sql += "  -- W = Pr(" + (mediators.empty() ? "()" : m_list) + " | " +
         query.treatment + " = '" + reference + "', " +
         (covariates.empty() ? "()" : z_list) + ") * Pr(" +
         (covariates.empty() ? "()" : z_list) + ")\n";
  sql += "  SELECT " + Join(mediators, ", ") +
         (mediators.empty() || covariates.empty() ? "" : ", ") + z_list +
         ", count(*) * 1.0 /\n";
  sql += "         (SELECT count(*) FROM " + query.table_name + " WHERE " +
         query.treatment + " = '" + reference + "') AS W\n";
  sql += "  FROM " + query.table_name + "\n";
  sql += "  WHERE " + query.treatment + " = '" + reference + "'\n";
  if (!mediators.empty() || !covariates.empty()) {
    sql += "  GROUP BY " + m_list +
           (mediators.empty() || covariates.empty() ? "" : ", ") + z_list +
           "\n";
  }
  sql += ")\n";
  sql += "SELECT MBlocks." + query.treatment + ", " + Join(sums, ", ") + "\n";
  sql += "FROM MBlocks, MWeights\n";
  if (!mediators.empty()) {
    std::vector<std::string> eq;
    for (const auto& m : mediators) {
      eq.push_back("MBlocks." + m + " = MWeights." + m);
    }
    sql += "WHERE " + Join(eq, " AND ") + "\n";
  }
  sql += "GROUP BY MBlocks." + query.treatment;
  return sql;
}

}  // namespace hypdb

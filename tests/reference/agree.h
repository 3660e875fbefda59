#ifndef EDS_TESTS_REFERENCE_AGREE_H_
#define EDS_TESTS_REFERENCE_AGREE_H_

#include <string>
#include <string_view>

#include "exec/executor.h"
#include "exec/session.h"
#include "gtest/gtest.h"
#include "reference/reference.h"

namespace eds::reference {

// One plan run by the executor (`got`) and by the reference (`want`).
struct Runs {
  Result<exec::Rows> got = exec::Rows{};
  Result<exec::Rows> want = exec::Rows{};
  exec::ExecStats got_stats, want_stats;
};

inline Runs RunBoth(const catalog::Catalog& cat, const exec::Database& db,
                    const term::TermRef& plan,
                    const exec::ExecOptions& options = {}) {
  Runs runs;
  exec::Executor executor(&cat, &db, options);
  runs.got = executor.Execute(plan);
  runs.got_stats = executor.stats();
  Reference reference(&cat, &db, options);
  runs.want = reference.Execute(plan);
  runs.want_stats = reference.stats();
  return runs;
}

// A session query run by the executor (`got`, with the stats the query
// reports), and the plan the query ran run by the reference (`want`). A
// query that fails before execution fails on both sides.
inline Runs RunQuery(exec::Session* session, std::string_view esql,
                     const exec::QueryOptions& options = {}) {
  Runs runs;
  Result<exec::QueryResult> query = session->Query(esql, options);
  if (!query.ok()) {
    runs.got = runs.want = query.status();
    return runs;
  }
  runs.got = query->rows;
  runs.got_stats = query->exec_stats;
  Reference reference(&session->catalog(), &session->db(),
                      options.exec_options);
  runs.want = reference.Execute(query->optimized_plan);
  runs.want_stats = reference.stats();
  return runs;
}

// Same rows in the same order, with the same value kinds (Int(2) and
// Real(2.0) compare equal but are different bytes on the wire).
inline void ExpectSameSequence(const exec::Rows& got, const exec::Rows& want,
                               const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << label << " row " << i;
    for (size_t j = 0; j < got[i].size(); ++j) {
      EXPECT_EQ(got[i][j].kind(), want[i][j].kind())
          << label << " row " << i << " col " << j;
      EXPECT_EQ(value::Compare(got[i][j], want[i][j]), 0)
          << label << " row " << i << " col " << j << ": "
          << got[i][j].ToString() << " vs " << want[i][j].ToString();
    }
  }
}

// The executor agrees with the reference: the same error text, or the
// same rows in the same order with the same tallies.
inline void ExpectAgree(const Runs& runs, const std::string& label) {
  ASSERT_EQ(runs.got.ok(), runs.want.ok())
      << label << ": "
      << (runs.got.ok() ? runs.want.status() : runs.got.status()).ToString();
  if (!runs.got.ok()) {
    EXPECT_EQ(runs.got.status().ToString(), runs.want.status().ToString())
        << label;
    return;
  }
  ExpectSameSequence(*runs.got, *runs.want, label);
  const exec::ExecStats& g = runs.got_stats;
  const exec::ExecStats& w = runs.want_stats;
  EXPECT_EQ(g.rows_output, w.rows_output) << label;
  EXPECT_EQ(g.rows_scanned, w.rows_scanned) << label;
  EXPECT_EQ(g.qual_evaluations, w.qual_evaluations) << label;
  EXPECT_EQ(g.fix_iterations, w.fix_iterations) << label;
  EXPECT_EQ(g.fix_tuples, w.fix_tuples) << label;
  EXPECT_EQ(g.vec_fallbacks, 0u) << label;
}

}  // namespace eds::reference

#endif  // EDS_TESTS_REFERENCE_AGREE_H_

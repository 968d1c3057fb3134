// Quickstart: build two small valid-time relations, evaluate their
// valid-time natural join through the JoinRequest facade, and inspect the
// I/O the run performed — including the EXPLAIN ANALYZE span tree of a
// planner-chosen run.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/planner.h"
#include "obs/explain.h"
#include "service/join_request.h"
#include "storage/disk.h"
#include "storage/stored_relation.h"

using namespace tempo;

int main() {
  // A simulated disk volume; every page access is classified as random or
  // sequential and counted.
  Disk disk;

  // Employees with the department they worked in, stamped with validity
  // intervals (chronons; think "days since epoch").
  Schema emp_schema({{"emp", ValueType::kString},
                     {"dept", ValueType::kString}});
  StoredRelation employees(&disk, emp_schema, "employees");
  auto add_emp = [&](const char* emp, const char* dept, Chronon from,
                     Chronon to) {
    TEMPO_CHECK(employees.Append(Tuple({Value(emp), Value(dept)},
                                       Interval(from, to)))
                    .ok());
  };
  add_emp("ada", "engineering", 0, 120);
  add_emp("ada", "research", 121, 400);
  add_emp("grace", "engineering", 50, 300);
  add_emp("edsger", "research", 10, 90);
  TEMPO_CHECK(employees.Flush().ok());

  // Department budgets over time. "dept" is the shared attribute, so the
  // natural join matches on it.
  Schema dept_schema({{"dept", ValueType::kString},
                      {"budget", ValueType::kInt64}});
  StoredRelation budgets(&disk, dept_schema, "budgets");
  auto add_budget = [&](const char* dept, int64_t budget, Chronon from,
                        Chronon to) {
    TEMPO_CHECK(budgets.Append(Tuple({Value(dept), Value(budget)},
                                     Interval(from, to)))
                    .ok());
  };
  add_budget("engineering", 1000, 0, 200);
  add_budget("engineering", 1500, 201, 400);
  add_budget("research", 700, 0, 150);
  add_budget("research", 900, 151, 400);
  TEMPO_CHECK(budgets.Flush().ok());

  // The join output schema is derived from the inputs: shared attributes
  // first, then each side's own attributes; timestamps are implicit.
  auto layout = DeriveNaturalJoinLayout(emp_schema, dept_schema);
  TEMPO_CHECK(layout.ok());
  StoredRelation result(&disk, layout->output, "result");

  // Evaluate employees |X|_v budgets with the paper's partition join.
  // Every executor runs through the same facade: describe the join as a
  // JoinRequest and hand it to RunJoin.
  JoinRequest request;
  request.From(&employees, &budgets)
      .Using(JoinExecutor::kPartition)
      .BufferPages(64)                      // main-memory budget, in pages
      .Model(CostModel::Ratio(5.0));        // random : sequential = 5:1
  auto stats = RunJoin(request, &result);
  if (!stats.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }

  std::printf("employee x budget history (%llu tuples):\n",
              static_cast<unsigned long long>(stats->output_tuples));
  auto tuples = result.ReadAll();
  TEMPO_CHECK(tuples.ok());
  for (const Tuple& t : *tuples) {
    std::printf("  %s\n", t.ToString().c_str());
  }

  std::printf("\nI/O performed: %s\n", stats->io.ToString().c_str());
  std::printf("weighted cost at 5:1: %.0f\n",
              stats->Cost(request.options.cost_model));

  // Same join through the cost-based planner (JoinExecutor::kAuto, the
  // default), this time with an ExecContext attached: every phase runs
  // under a traced span, and ExplainAnalyze prints the tree with
  // planner-estimated vs. actual cost, the random/sequential split, and
  // the typed metrics.
  StoredRelation result2(&disk, layout->output, "result2");
  ExecContext ctx;
  JoinRequest planned_request;
  planned_request.From(&employees, &budgets).BufferPages(64);
  auto planned = RunJoin(planned_request, &result2, &ctx);
  if (!planned.ok()) {
    std::fprintf(stderr, "planned join failed: %s\n",
                 planned.status().ToString().c_str());
    return 1;
  }
  std::printf("\nEXPLAIN ANALYZE (planner picked %s):\n%s",
              JoinExecutorName(static_cast<JoinExecutor>(
                  static_cast<int>(planned->Get(Metric::kPlannedAlgorithm)))),
              ExplainAnalyze(ctx).c_str());
  return 0;
}

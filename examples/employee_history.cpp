// Reconstructing normalized temporal data — the paper's motivating use
// case ("Like its snapshot counterpart, the valid-time natural join
// supports the reconstruction of normalized data", Section 1).
//
// An HR database is decomposed into two valid-time relations keyed by
// employee id: one for salary history, one for position history. This
// example rebuilds the combined history with the valid-time natural join,
// asks point-in-time questions with the timeslice operator, coalesces
// redundant history, and uses the TE-outerjoin (the sequenced left-outer
// join) to find stretches where an employee drew a salary without an
// assigned position.

#include <cstdio>

#include "algebra/operators.h"
#include "core/partition_join.h"
#include "service/join_request.h"
#include "storage/disk.h"
#include "storage/stored_relation.h"

using namespace tempo;

namespace {

void Print(const char* title, const std::vector<Tuple>& tuples) {
  std::printf("%s\n", title);
  for (const Tuple& t : tuples) std::printf("  %s\n", t.ToString().c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  Disk disk;

  // Salary history: (id, salary) @ validity. Normalized — salary changes
  // independently of position.
  Schema salary_schema({{"id", ValueType::kInt64},
                        {"salary", ValueType::kInt64}});
  StoredRelation salaries(&disk, salary_schema, "salaries");
  auto pay = [&](int64_t id, int64_t amount, Chronon from, Chronon to) {
    TEMPO_CHECK(salaries.Append(Tuple({Value(id), Value(amount)},
                                      Interval(from, to)))
                    .ok());
  };
  pay(1, 50000, 0, 99);
  pay(1, 60000, 100, 365);
  pay(2, 55000, 30, 200);
  pay(2, 55000, 201, 365);  // same salary, contiguous: coalescible
  pay(3, 70000, 0, 365);
  TEMPO_CHECK(salaries.Flush().ok());

  // Position history: (id, title) @ validity.
  Schema position_schema({{"id", ValueType::kInt64},
                          {"title", ValueType::kString}});
  StoredRelation positions(&disk, position_schema, "positions");
  auto assign = [&](int64_t id, const char* title, Chronon from, Chronon to) {
    TEMPO_CHECK(positions.Append(Tuple({Value(id), Value(title)},
                                       Interval(from, to)))
                    .ok());
  };
  assign(1, "engineer", 0, 180);
  assign(1, "manager", 181, 365);
  assign(2, "analyst", 60, 365);  // hired into a position 30 days late!
  TEMPO_CHECK(positions.Flush().ok());
  // Employee 3 draws a salary all year but never has a position.

  // --- Reconstruction: salaries |X|_v positions. -----------------------
  auto layout = DeriveNaturalJoinLayout(salary_schema, position_schema);
  TEMPO_CHECK(layout.ok());
  StoredRelation combined(&disk, layout->output, "combined");
  PartitionJoinOptions options;
  options.buffer_pages = 64;
  auto stats = PartitionVtJoin(&salaries, &positions, &combined, options);
  TEMPO_CHECK(stats.ok());
  auto combined_tuples = combined.ReadAll();
  TEMPO_CHECK(combined_tuples.ok());
  Print("combined (id, salary, title) history:", *combined_tuples);

  // --- Point-in-time query: the staff ledger on day 150. ---------------
  Print("timeslice at day 150:", Timeslice(*combined_tuples, 150));

  // --- Coalescing: employee 2's split-but-identical salary rows merge. --
  auto salary_tuples = salaries.ReadAll();
  TEMPO_CHECK(salary_tuples.ok());
  Print("salary history, coalesced:", Coalesce(*salary_tuples));

  // --- TE-outerjoin: salaried time without a position. -----------------
  StoredRelation outer(&disk, layout->output, "outer");
  JoinRequest request;
  request.From(&salaries, &positions)
      .Using(JoinExecutor::kPartition)
      .Kind(JoinKind::kLeftOuter)
      .BufferPages(64);
  TEMPO_CHECK(RunJoin(request, &outer).ok());
  auto outer_tuples = outer.ReadAll();
  TEMPO_CHECK(outer_tuples.ok());
  std::vector<Tuple> unassigned;
  for (const Tuple& t : *outer_tuples) {
    if (t.value(2).is_null()) unassigned.push_back(t);
  }
  Print("salaried but unassigned (title NULL):", unassigned);

  return 0;
}

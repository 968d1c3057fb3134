#include "algebra/temporal_joins.h"

#include "join/join_common.h"

namespace tempo {

StatusOr<std::vector<Tuple>> ContainSemiJoin(const Schema& r_schema,
                                             const std::vector<Tuple>& r,
                                             const Schema& s_schema,
                                             const std::vector<Tuple>& s) {
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         DeriveNaturalJoinLayout(r_schema, s_schema));
  HashedTupleIndex index(&s, &layout.s_join_attrs);
  std::vector<Tuple> out;
  for (const Tuple& x : r) {
    bool matched = false;
    index.ForEachMatch(x, layout.r_join_attrs, [&](const Tuple& y) {
      if (x.interval().Contains(y.interval())) matched = true;
    });
    if (matched) out.push_back(x);
  }
  return out;
}

}  // namespace tempo

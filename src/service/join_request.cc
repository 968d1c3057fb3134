#include "service/join_request.h"

#include <algorithm>

#include "core/planner.h"

namespace tempo {

namespace {

Status ValidateJoinAttrs(const JoinRequest& req) {
  if (req.expected_join_attrs.empty()) return Status::OK();
  TEMPO_ASSIGN_OR_RETURN(
      NaturalJoinLayout layout,
      DeriveNaturalJoinLayout(req.r->schema(), req.s->schema()));
  std::vector<std::string> actual;
  actual.reserve(layout.r_join_attrs.size());
  for (size_t pos : layout.r_join_attrs) {
    actual.push_back(req.r->schema().attribute(pos).name);
  }
  std::vector<std::string> expected = req.expected_join_attrs;
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  if (actual != expected) {
    std::string got = "{";
    for (const std::string& a : actual) {
      if (got.size() > 1) got += ", ";
      got += a;
    }
    got += "}";
    std::string want = "{";
    for (const std::string& a : expected) {
      if (want.size() > 1) want += ", ";
      want += a;
    }
    want += "}";
    return Status::InvalidArgument("join attributes mismatch: schemas share " +
                                   got + " but the request expects " + want);
  }
  return Status::OK();
}

}  // namespace

StatusOr<JoinRunStats> RunJoin(const JoinRequest& req, StoredRelation* out,
                               ExecContext* ctx) {
  if (req.r == nullptr || req.s == nullptr) {
    return Status::InvalidArgument(
        "JoinRequest has no input relations (call From)");
  }
  if (out == nullptr) {
    return Status::InvalidArgument("RunJoin needs an output relation");
  }
  if (out == req.r || out == req.s) {
    return Status::InvalidArgument(
        "output relation must be distinct from the inputs");
  }
  TEMPO_RETURN_IF_ERROR(ValidateJoinAttrs(req));
  StatusOr<JoinRunStats> result =
      ExecutorRowOf(req.executor).run(req.r, req.s, out, req.options, ctx);
  if (result.ok() && !req.options.predicate.IsOverlapDefault()) {
    result->Set(Metric::kJoinPredicateMask,
                static_cast<double>(req.options.predicate.mask()));
  }
  return result;
}

}  // namespace tempo

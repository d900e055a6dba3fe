// Wire format of the POST /locate endpoint, shared between the serving
// daemon (tools/confcall_serve), the serving bench (bench_e16) and the
// tests — so the request grammar and the response shape live in exactly
// one place instead of being re-implemented per caller.
//
// Request body grammar (parse_locate_body):
//
//   ""  / whitespace      one synthetic call (the historical behaviour
//                         of a bare `curl -X POST`, kept so existing
//                         smoke scripts stay valid)
//   {...}                 one call; the optional "users" member names
//                         the participants explicitly, and the optional
//                         "area" member picks the serving fleet area
//                         (default 0):
//                            {"users": [3, 17, 41], "area": 2}
//                         an empty object (or omitted "users") asks the
//                         server to synthesize the call from its
//                         workload model
//   [{...}, {...}, ...]   a batch: each element is a call object as
//                         above. Served through
//                         LocationService::locate_many after a single
//                         admission pass, answered as a JSON array.
//
// Anything else — malformed JSON, wrong value types, out-of-range or
// duplicate user ids, unknown or repeated members — throws
// std::invalid_argument with a message fit for the endpoint's 400
// response body.
//
// Response rendering (append_outcome_json) emits the field set the
// endpoint has always produced, one object per call:
//
//   {"admitted": false, "participants": N}
//   {"admitted": true, "participants": N, "cells_paged": ...,
//    "rounds_used": ..., "retries": ..., "abandoned": ...,
//    "degraded": ..., "deadline_limited": ...}
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "cellular/service.h"

namespace confcall::cellular {

/// One requested call. Empty `users` = synthesize the participants
/// server-side from the workload's call generator.
struct LocateCallSpec {
  std::vector<UserId> users;
  /// Which fleet area serves the call (the optional "area" member).
  /// Single-service deployments have exactly one area, 0; the fleet
  /// daemon (--shards) routes by it. Bounded by parse_locate_body's
  /// num_areas.
  std::size_t area = 0;
};

/// A parsed POST /locate body.
struct LocateApiRequest {
  /// The body was a JSON array — answer with a JSON array, one element
  /// per call, HTTP 200 even when some calls were shed (per-element
  /// "admitted" carries the verdict). A single object (or an empty
  /// body) keeps the historical single-call contract: 503 on shed.
  bool batch = false;
  std::vector<LocateCallSpec> calls;  ///< may be empty only when batch
};

/// Parses a POST /locate request body; see the grammar above.
/// `num_users` bounds the valid user-id range [0, num_users) and
/// `num_areas` the optional "area" member's range [0, num_areas) — the
/// default 1 keeps the single-service contract, where only area 0 (or
/// an omitted member) is accepted. Throws std::invalid_argument on
/// malformed input.
[[nodiscard]] LocateApiRequest parse_locate_body(std::string_view body,
                                                 std::size_t num_users,
                                                 std::size_t num_areas = 1);

/// Appends one call's JSON response object to `out`. `outcome` may be
/// null only when `admitted` is false.
void append_outcome_json(std::string& out, bool admitted,
                         std::size_t participants,
                         const LocationService::LocateOutcome* outcome);

}  // namespace confcall::cellular

// The checkpoint layout FotakisOfl and MeyersonOfl wrote while they ran
// one single-commodity sub-instance per commodity, each with its own
// ledger and id tables (up to commit baf55ed):
//
//   subs <|S|>
//   sub <e> <initialized>            per commodity; when initialized:
//     <the sub-algorithm's state, in sub-instance ids>
//     <the sub-instance's single-commodity ledger>
//     facility-map <n> <real id>...  sub facility id -> real facility id
//     real-requests <n> <real id>... sub request id -> real request id
//   sub-ids <n>                      per real request, its sub ids:
//   sub-id <k> <e> <sub id>...
//
// Snapshots in this layout still restore: the two algorithms read their
// sub-algorithm sections themselves and translate ids through the tables
// read here. Everything else is parsed strictly and dropped.
#pragma once

#include <functional>
#include <vector>

#include "instance/checkpoint_io.hpp"
#include "metric/metric_space.hpp"

namespace omflp {

/// The id tables of one sub-instance. Both are strictly increasing: the
/// sub-instance's facilities and requests were mirrored in order.
struct SubInstanceIds {
  std::vector<FacilityId> facility_map;  // sub facility id -> real id
  std::vector<RequestId> real_request;   // sub request id -> real id
};

/// Reads the layout after its `subs` key. For every initialized commodity
/// e, `read_state(e)` reads the sub-algorithm's section; the sub-ledger is
/// then parsed into a throwaway ledger over `metric`, and `adopt(e, ids)`
/// receives the tables. Real request ids must lie below `num_requests`.
void read_sub_instance_layout(
    CkptReader& reader, const MetricPtr& metric,
    CommodityId num_commodities, RequestId num_requests,
    const std::function<void(CommodityId)>& read_state,
    const std::function<void(CommodityId, const SubInstanceIds&)>& adopt);

}  // namespace omflp

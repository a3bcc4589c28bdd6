#include "baseline/sub_instance_layout.hpp"

#include <memory>
#include <string>
#include <string_view>

#include "cost/cost_models.hpp"
#include "solution/solution.hpp"

namespace omflp {

namespace {

/// A `key n id...` line of strictly increasing ids below `bound`.
template <typename Id>
std::vector<Id> read_id_table(CkptReader& reader, std::string_view key,
                              std::uint64_t count, std::uint64_t bound) {
  reader.expect(key);
  if (reader.u() != count)
    reader.fail(std::string(key) + " out of step with the sub-ledger");
  std::vector<Id> ids;
  ids.reserve(capped_reserve(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = reader.u();
    if (id >= bound || (!ids.empty() && id <= ids.back()))
      reader.fail(std::string(key) + " ids out of order or out of range");
    ids.push_back(static_cast<Id>(id));
  }
  return ids;
}

}  // namespace

void read_sub_instance_layout(
    CkptReader& reader, const MetricPtr& metric,
    CommodityId num_commodities, RequestId num_requests,
    const std::function<void(CommodityId)>& read_state,
    const std::function<void(CommodityId, const SubInstanceIds&)>& adopt) {
  if (reader.u() != num_commodities)
    reader.fail("sub-instance count differs from the commodity universe");
  // The sub-ledgers priced one commodity; their costs are read verbatim,
  // so any single-commodity model parses them.
  const auto single = std::make_shared<PolynomialCostModel>(1, 1.0);
  for (CommodityId e = 0; e < num_commodities; ++e) {
    reader.expect("sub");
    if (reader.u() != e) reader.fail("sub-instances out of order");
    if (!reader.b()) continue;
    read_state(e);
    SolutionLedger sub_ledger(metric, single);
    sub_ledger.restore(reader);
    SubInstanceIds ids;
    ids.facility_map = read_id_table<FacilityId>(
        reader, "facility-map", sub_ledger.num_facilities(),
        ~std::uint64_t{0});
    ids.real_request = read_id_table<RequestId>(
        reader, "real-requests", sub_ledger.num_requests(), num_requests);
    adopt(e, ids);
  }
  reader.expect("sub-ids");
  const std::uint64_t num_sub_ids = reader.u();
  for (std::uint64_t i = 0; i < num_sub_ids; ++i) {
    reader.expect("sub-id");
    const std::uint64_t n = reader.u();
    for (std::uint64_t k = 0; k < n; ++k) {
      if (reader.u() >= num_commodities) reader.fail("sub-id commodity range");
      (void)reader.u();
    }
  }
}

}  // namespace omflp

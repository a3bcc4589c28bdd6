#include "baseline/per_commodity.hpp"

#include <optional>
#include <sstream>

#include "baseline/fotakis_ofl.hpp"
#include "baseline/meyerson_ofl.hpp"
#include "instance/checkpoint_io.hpp"
#include "obs/trace_sink.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

/// Re-emit events a sub-algorithm produced against its private
/// sub-ledger, translated into real-ledger ids. request_assign events are
/// dropped: the adapter's own ledger.assign() re-emits them with real ids.
/// (Templated on the adapter's private SubInstance type.)
template <typename SubInstance>
void replay_sub_trace(const TraceBuffer& sub_trace, const SubInstance& sub,
                      CommodityId e) {
  for (TraceEvent ev : sub_trace.events()) {
    if (ev.kind == TraceEventKind::kRequestAssign) continue;
    ev.commodity = e;
    if (ev.facility != kInvalidFacility) {
      OMFLP_CHECK(ev.facility < sub.facility_map.size(),
                  "PerCommodityAdapter: trace names an unmirrored facility");
      ev.facility = sub.facility_map[ev.facility];
    }
    if (ev.request != kInvalidRequest) {
      OMFLP_CHECK(ev.request < sub.real_request.size(),
                  "PerCommodityAdapter: trace names an unknown sub-request");
      ev.request = sub.real_request[ev.request];
    }
    for (TraceContributor& c : ev.contributors) {
      OMFLP_CHECK(c.request < sub.real_request.size(),
                  "PerCommodityAdapter: contributor is an unknown "
                  "sub-request");
      c.request = sub.real_request[c.request];
    }
    obs::emit(ev);
  }
}

}  // namespace

RestrictedCostModel::RestrictedCostModel(CostModelPtr base,
                                         CommodityId commodity)
    : base_(std::move(base)), commodity_(commodity) {
  OMFLP_REQUIRE(base_ != nullptr, "RestrictedCostModel: null base");
  OMFLP_REQUIRE(commodity_ < base_->num_commodities(),
                "RestrictedCostModel: commodity out of range");
}

double RestrictedCostModel::open_cost(PointId m,
                                      const CommoditySet& config) const {
  const CommodityId size = check_config(config);
  if (size == 0) return 0.0;
  return base_->open_cost(
      m, CommoditySet::singleton(base_->num_commodities(), commodity_));
}

std::string RestrictedCostModel::description() const {
  std::ostringstream os;
  os << "restrict(" << base_->description() << ", e=" << commodity_ << ")";
  return os.str();
}

PerCommodityAdapter::PerCommodityAdapter(Factory factory, std::string label)
    : factory_(std::move(factory)), label_(std::move(label)) {
  OMFLP_REQUIRE(factory_ != nullptr, "PerCommodityAdapter: null factory");
}

std::unique_ptr<PerCommodityAdapter> PerCommodityAdapter::fotakis() {
  return std::make_unique<PerCommodityAdapter>(
      [](CommodityId) { return std::make_unique<FotakisOfl>(); },
      "PerCommodity[Fotakis]");
}

std::unique_ptr<PerCommodityAdapter> PerCommodityAdapter::meyerson(
    std::uint64_t seed) {
  return std::make_unique<PerCommodityAdapter>(
      [seed](CommodityId e) {
        return std::make_unique<MeyersonOfl>(seed ^ (0x9e3779b97f4a7c15ULL *
                                                     (e + 1)));
      },
      "PerCommodity[Meyerson]");
}

void PerCommodityAdapter::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "PerCommodityAdapter::reset: incomplete context");
  context_ = context;
  subs_.clear();
  subs_.resize(context.num_commodities());
  sub_ids_.clear();
}

PerCommodityAdapter::SubInstance& PerCommodityAdapter::sub_for(CommodityId e) {
  SubInstance& sub = subs_[e];
  if (!sub.initialized) {
    auto restricted =
        std::make_shared<RestrictedCostModel>(context_.cost, e);
    sub.algorithm = factory_(e);
    OMFLP_CHECK(sub.algorithm != nullptr,
                "PerCommodityAdapter: factory returned null");
    sub.algorithm->reset(ProblemContext{context_.metric, restricted});
    sub.ledger = std::make_unique<SolutionLedger>(context_.metric, restricted);
    sub.initialized = true;
  }
  return sub;
}

void PerCommodityAdapter::serve(const Request& request,
                                SolutionLedger& ledger) {
  const CommodityId s = context_.num_commodities();
  OMFLP_CHECK(ledger.num_requests() == sub_ids_.size() + 1,
              "PerCommodityAdapter: serve out of step with the ledger");
  sub_ids_.emplace_back();
  request.commodities.for_each([&](CommodityId e) {
    SubInstance& sub = sub_for(e);
    sub_ids_.back().emplace_back(e, sub.ledger->num_requests());
    sub.real_request.push_back(ledger.num_requests() - 1);

    Request sub_request;
    sub_request.location = request.location;
    sub_request.commodities = CommoditySet::full_set(1);
    // Sub-algorithms emit trace events in their own sub-ledger id space;
    // capture them in a buffer and replay with translated ids below.
    TraceBuffer sub_trace;
    {
      std::optional<TraceScope> capture;
      if (obs::tracing()) capture.emplace(sub_trace);
      sub.ledger->begin_request(sub_request);
      sub.algorithm->serve(sub_request, *sub.ledger);
      sub.ledger->finish_request();
    }

    // Mirror any newly opened sub-facilities into the real ledger as
    // singleton-{e} facilities.
    while (sub.facility_map.size() < sub.ledger->num_facilities()) {
      const OpenFacilityRecord& f =
          sub.ledger->facility(sub.facility_map.size());
      sub.facility_map.push_back(
          ledger.open_facility(f.location, CommoditySet::singleton(s, e)));
    }
    replay_sub_trace(sub_trace, sub, e);

    // Mirror the assignment of the sub-request just served.
    const RequestRecord& rec =
        sub.ledger->request_record(sub.ledger->num_requests() - 1);
    OMFLP_CHECK(rec.served.size() == 1,
                "PerCommodityAdapter: sub-algorithm must serve exactly one "
                "commodity");
    ledger.assign(e, sub.facility_map[rec.served.front().facility]);
  });
}

void PerCommodityAdapter::depart(RequestId id, const Request& request,
                                 SolutionLedger& ledger) {
  (void)ledger;
  OMFLP_REQUIRE(id < sub_ids_.size(),
                "PerCommodityAdapter: depart of unknown request");
  Request sub_request;
  sub_request.location = request.location;
  sub_request.commodities = CommoditySet::full_set(1);
  for (const auto& [e, sub_id] : sub_ids_[id]) {
    SubInstance& sub = sub_for(e);
    TraceBuffer sub_trace;
    {
      std::optional<TraceScope> capture;
      if (obs::tracing()) capture.emplace(sub_trace);
      sub.algorithm->depart(sub_id, sub_request, *sub.ledger);
    }
    replay_sub_trace(sub_trace, sub, e);
  }
}

void PerCommodityAdapter::serialize_state(CkptWriter& writer) const {
  writer.line("subs").u(subs_.size());
  for (std::size_t e = 0; e < subs_.size(); ++e) {
    const SubInstance& sub = subs_[e];
    writer.line("sub").u(e).b(sub.initialized);
    if (!sub.initialized) continue;
    sub.algorithm->serialize_state(writer);
    sub.ledger->serialize(writer);
    writer.line("facility-map").u(sub.facility_map.size());
    for (const FacilityId f : sub.facility_map) writer.u(f);
    writer.line("real-requests").u(sub.real_request.size());
    for (const RequestId r : sub.real_request) writer.u(r);
  }
  writer.line("sub-ids").u(sub_ids_.size());
  for (const auto& entries : sub_ids_) {
    writer.line("sub-id").u(entries.size());
    for (const auto& [commodity, sub_request] : entries)
      writer.u(commodity).u(sub_request);
  }
}

void PerCommodityAdapter::restore_state(CkptReader& reader,
                                        RequestId request_count) {
  reader.expect("subs");
  if (reader.u() != subs_.size())
    reader.fail("sub-instance count differs from the commodity universe");
  for (std::size_t e = 0; e < subs_.size(); ++e) {
    reader.expect("sub");
    if (reader.u() != e) reader.fail("sub-instances out of order");
    if (!reader.b()) continue;
    // Re-initialize through the factory (same derived seed), then hand
    // the sub-algorithm and sub-ledger their serialized state.
    SubInstance& sub = sub_for(static_cast<CommodityId>(e));
    sub.algorithm->restore_state(reader, request_count);
    sub.ledger->restore(reader);
    reader.expect("facility-map");
    const std::uint64_t num_mapped = reader.u();
    if (num_mapped != sub.ledger->num_facilities())
      reader.fail("facility map out of step with the sub-ledger");
    sub.facility_map.reserve(capped_reserve(num_mapped));
    for (std::uint64_t i = 0; i < num_mapped; ++i)
      sub.facility_map.push_back(static_cast<FacilityId>(reader.u()));
    reader.expect("real-requests");
    const std::uint64_t num_requests = reader.u();
    sub.real_request.reserve(capped_reserve(num_requests));
    for (std::uint64_t i = 0; i < num_requests; ++i)
      sub.real_request.push_back(static_cast<RequestId>(reader.u()));
  }
  reader.expect("sub-ids");
  const std::uint64_t num_sub_ids = reader.u();
  sub_ids_.reserve(capped_reserve(num_sub_ids));
  for (std::uint64_t i = 0; i < num_sub_ids; ++i) {
    reader.expect("sub-id");
    const std::uint64_t n = reader.u();
    std::vector<std::pair<CommodityId, RequestId>> entries;
    entries.reserve(capped_reserve(n));
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto commodity = static_cast<CommodityId>(reader.u());
      if (commodity >= subs_.size()) reader.fail("sub-id commodity range");
      entries.emplace_back(commodity, static_cast<RequestId>(reader.u()));
    }
    sub_ids_.push_back(std::move(entries));
  }
}

}  // namespace omflp

#include "core/pd_omflp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "instance/checkpoint_io.hpp"
#include "kernel/kernels.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

inline double positive_part(double x) noexcept { return x > 0.0 ? x : 0.0; }

inline bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

PdOmflp::PdOmflp(PdOptions options) : options_(options) {}

std::string PdOmflp::name() const {
  std::string n = "PD-OMFLP";
  if (options_.prediction == PdOptions::Prediction::kOff)
    n += "[no-prediction]";
  if (options_.large_config == PdOptions::LargeConfig::kSeenUnion)
    n += "[seen-union]";
  if (!options_.excluded_from_prediction.empty())
    n += "[exclude=" +
         std::to_string(options_.excluded_from_prediction.count()) + "]";
  if (options_.bid_mode == PdOptions::BidMode::kReference) n += "[reference]";
  return n;
}

void PdOmflp::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "PdOmflp::reset: incomplete context");
  cost_ = context.cost;
  dist_ = shared_distances(context.metric);
  num_commodities_ = cost_->num_commodities();
  num_points_ = dist_->num_points();

  offering_.assign(num_commodities_, {});
  larges_.clear();
  seen_ = CommoditySet(num_commodities_);
  if (options_.excluded_from_prediction.universe_size() == 0) {
    excluded_ = CommoditySet(num_commodities_);
  } else {
    OMFLP_REQUIRE(options_.excluded_from_prediction.universe_size() ==
                      num_commodities_,
                  "PdOmflp: excluded_from_prediction universe mismatch");
    excluded_ = options_.excluded_from_prediction;
  }
  refresh_large_config();
  near_small_.clear();
  near_small_offset_.assign(num_commodities_, kNoTable);
  near_large_.clear();
  archive_.clear();
  by_commodity_.assign(num_commodities_, {});
  large_bidders_ = {};
  large_row_ = num_commodities_;
  bids_.reset(num_commodities_ + 1, num_points_);
  if (options_.bid_mode == PdOptions::BidMode::kIncremental)
    bids_.activate(large_row_);
  cost_rows_.reset(num_commodities_, num_points_);
  large_cost_row_.clear();
  large_cost_valid_ = false;
  ref_bid_scratch_.clear();
  large_bid_scratch_.clear();
  total_dual_ = 0.0;
  trace_.clear();
}

void PdOmflp::ensure_singleton_cost_row(CommodityId e) {
  if (cost_rows_.active(e)) return;
  double* row = cost_rows_.activate(e);
  for (PointId m = 0; m < num_points_; ++m)
    row[m] = cost_->singleton_cost(m, e);
}

const double* PdOmflp::large_cost_row(const CommoditySet& config) {
  if (!large_cost_valid_ || !(large_cost_config_ == config)) {
    large_cost_row_.resize(num_points_);
    for (PointId m = 0; m < num_points_; ++m)
      large_cost_row_[m] = cost_->open_cost(m, config);
    large_cost_config_ = config;
    large_cost_valid_ = true;
  }
  return large_cost_row_.data();
}

void PdOmflp::refresh_large_config() {
  if (options_.large_config == PdOptions::LargeConfig::kFullS)
    large_config_ = CommoditySet::full_set(num_commodities_);
  else
    large_config_ = seen_;
  large_config_ -= excluded_;
}

PdOmflp::Nearest PdOmflp::nearest_offering(CommodityId e, PointId p) const {
  const std::size_t offset = near_small_offset_[e];
  if (offset == kNoTable) return {};
  return near_small_[offset + p];
}

template <typename Commodities>
PdOmflp::Nearest PdOmflp::nearest_large(PointId p,
                                        const Commodities& commodities) const {
  // The chain is nested, so "covers the demand" holds on a suffix of it:
  // the first covering table is the smallest covering configuration.
  const auto covering = std::partition_point(
      near_large_.begin(), near_large_.end(), [&](const LargeTable& t) {
        for (CommodityId e : commodities)
          if (!t.config.contains(e) && !excluded_.contains(e)) return true;
        return false;
      });
  if (covering == near_large_.end()) return {};
  return covering->nearest[p];
}

PdOmflp::Nearest* PdOmflp::small_table(CommodityId e) {
  if (near_small_offset_[e] == kNoTable) {
    near_small_offset_[e] = near_small_.size();
    near_small_.resize(near_small_.size() + num_points_);
  }
  return near_small_.data() + near_small_offset_[e];
}

void PdOmflp::sweep_facility(Nearest* table, PointId point,
                             FacilityId id) const {
  OMFLP_PERF_ADD(facilities_probed, 1);
  OMFLP_PERF_ADD(distance_lookups, num_points_);
  const double* dist_f = dist_->row(point);  // d(point, ·) = d(·, point)
  for (PointId p = 0; p < num_points_; ++p)
    if (dist_f[p] < table[p].dist) table[p] = Nearest{dist_f[p], id};
}

bool PdOmflp::add_large_to_tables(const LargeRecord& facility) {
  if (near_large_.empty() || !(near_large_.back().config == facility.config)) {
    if (!near_large_.empty() &&
        !near_large_.back().config.is_subset_of(facility.config))
      return false;
    near_large_.push_back(
        LargeTable{facility.config, std::vector<Nearest>(num_points_)});
  }
  // The new facility covers every configuration of the chain.
  for (LargeTable& t : near_large_)
    sweep_facility(t.nearest.data(), facility.point, facility.id);
  return true;
}

void PdOmflp::withdraw_bidder(BidderList& list, RequestId departing) {
  if (2 * ++list.tombstones <= list.entries.size()) return;
  std::erase_if(list.entries, [&](const Bidder& b) {
    return b.request == departing || !archive_.resident(b.request);
  });
  list.tombstones = 0;
}

void PdOmflp::recompute_small_bid_row(CommodityId e,
                                      std::vector<double>& out) const {
  out.assign(num_points_, 0.0);
  for (const Bidder& b : by_commodity_[e].entries) {
    const PastRequest* pr = archive_.find(b.request);
    if (pr == nullptr) continue;  // departed: a tombstone
    const double v = std::min(pr->slots[b.slot].dual,
                              nearest_offering(e, pr->location).dist);
    if (v <= 0.0) continue;
    OMFLP_PERF_ADD(bids_evaluated, num_points_);
    OMFLP_PERF_ADD(distance_lookups, num_points_);
    kernel::accumulate_clipped_bid(out.data(), dist_->row(pr->location), v,
                                   num_points_);
  }
}

void PdOmflp::recompute_large_bid_row(std::vector<double>& out) const {
  out.assign(num_points_, 0.0);
  for (const Bidder& b : large_bidders_.entries) {
    const PastRequest* pr = archive_.find(b.request);
    if (pr == nullptr) continue;  // departed: a tombstone
    const double v =
        std::min(pr->dual_sum_large,
                 nearest_large(pr->location, commodities_of(*pr)).dist);
    if (v <= 0.0) continue;
    OMFLP_PERF_ADD(bids_evaluated, num_points_);
    OMFLP_PERF_ADD(distance_lookups, num_points_);
    kernel::accumulate_clipped_bid(out.data(), dist_->row(pr->location), v,
                                   num_points_);
  }
}

void PdOmflp::small_bid_row(CommodityId e, std::vector<double>& out) const {
  if (options_.bid_mode == PdOptions::BidMode::kReference) {
    recompute_small_bid_row(e, out);
    return;
  }
  if (!bids_.active(e)) {
    out.assign(num_points_, 0.0);
  } else {
    const double* row = bids_.row(e);
    out.assign(row, row + num_points_);
  }
}

void PdOmflp::large_bid_row(std::vector<double>& out) const {
  if (options_.bid_mode == PdOptions::BidMode::kReference) {
    recompute_large_bid_row(out);
    return;
  }
  const double* row = bids_.row(large_row_);
  out.assign(row, row + num_points_);
}

void PdOmflp::integrate_facility(PointId point, const CommoditySet& config,
                                 FacilityId id, bool is_large) {
  const bool incremental =
      options_.bid_mode == PdOptions::BidMode::kIncremental;
  // F̂ is defined by what a facility offers, not how it was opened: with
  // |S| = 1 a "small" facility covers all of S and belongs to F̂.
  is_large = is_large || config.is_full();

  // Each bid shift reads v_old from the table before the sweep lowers
  // it; the walk visits still-bidding slots in id order, so the
  // shifts land on the rows in the order a walk over every archived
  // request would apply them.
  config.for_each([&](CommodityId e) {
    offering_[e].push_back(OpenRecord{point, id});
    Nearest* table = small_table(e);
    if (incremental && bids_.active(e)) {
      for (const Bidder& b : by_commodity_[e].entries) {
        const PastRequest* pr = archive_.find(b.request);
        if (pr == nullptr) continue;
        const double d_old = table[pr->location].dist;
        const double d_new = (*dist_)(point, pr->location);
        if (d_new >= d_old) continue;
        const double v_old = std::min(pr->slots[b.slot].dual, d_old);
        const double v_new = std::min(pr->slots[b.slot].dual, d_new);
        if (v_new < v_old && v_old > 0.0) {
          OMFLP_PERF_ADD(bids_updated, num_points_);
          OMFLP_PERF_ADD(distance_lookups, num_points_);
          kernel::shift_clipped_bid(bids_.row(e), dist_->row(pr->location),
                                    v_old, v_new, num_points_);
        }
      }
    }
    sweep_facility(table, point, id);
  });

  if (!is_large) return;
  larges_.push_back(LargeRecord{point, id, config});
  if (incremental) {
    for (const Bidder& b : large_bidders_.entries) {
      const PastRequest* pr = archive_.find(b.request);
      if (pr == nullptr) continue;
      bool covers = true;
      for (const PastSlot& slot : pr->slots) {
        if (!config.contains(slot.commodity) &&
            !excluded_.contains(slot.commodity)) {
          covers = false;
          break;
        }
      }
      if (!covers) continue;
      const double d_old =
          nearest_large(pr->location, commodities_of(*pr)).dist;
      const double d_new = (*dist_)(point, pr->location);
      if (d_new >= d_old) continue;
      const double v_old = std::min(pr->dual_sum_large, d_old);
      const double v_new = std::min(pr->dual_sum_large, d_new);
      if (v_new < v_old && v_old > 0.0) {
        OMFLP_PERF_ADD(bids_updated, num_points_);
        OMFLP_PERF_ADD(distance_lookups, num_points_);
        kernel::shift_clipped_bid(bids_.row(large_row_),
                                  dist_->row(pr->location), v_old, v_new,
                                  num_points_);
      }
    }
  }
  OMFLP_CHECK(add_large_to_tables(larges_.back()),
              "PdOmflp: large configurations are not nested");
}

void PdOmflp::archive_request(RequestId id, const Request& request,
                              const std::vector<CommodityId>& commodities,
                              const std::vector<double>& duals) {
  const bool incremental =
      options_.bid_mode == PdOptions::BidMode::kIncremental;

  // A reused slot keeps its vectors' capacity.
  PastRequest& pr = archive_.add(id);
  pr.location = request.location;
  pr.slots.clear();
  pr.dual_sum_large = 0.0;
  for (std::size_t slot = 0; slot < commodities.size(); ++slot) {
    pr.slots.push_back(PastSlot{commodities[slot], duals[slot]});
    if (!excluded_.contains(commodities[slot]))
      pr.dual_sum_large += duals[slot];
  }

  for (std::size_t slot = 0; slot < commodities.size(); ++slot) {
    const CommodityId e = commodities[slot];
    if (duals[slot] > 0.0)
      by_commodity_[e].entries.push_back(
          Bidder{id, static_cast<std::uint32_t>(slot)});
    if (incremental) {
      const double v =
          std::min(duals[slot], nearest_offering(e, pr.location).dist);
      if (v > 0.0) {
        double* row = bids_.activate(e);
        OMFLP_PERF_ADD(bids_updated, num_points_);
        OMFLP_PERF_ADD(distance_lookups, num_points_);
        kernel::accumulate_clipped_bid(row, dist_->row(pr.location), v,
                                       num_points_);
      }
    }
  }
  if (pr.dual_sum_large > 0.0) large_bidders_.entries.push_back(Bidder{id, 0});
  if (incremental && prediction_enabled()) {
    const double v = std::min(pr.dual_sum_large,
                              nearest_large(pr.location, commodities).dist);
    if (v > 0.0) {
      OMFLP_PERF_ADD(bids_updated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      kernel::accumulate_clipped_bid(bids_.row(large_row_),
                                     dist_->row(pr.location), v,
                                     num_points_);
    }
  }
  for (double a : duals) total_dual_ += a;

  if (obs::tracing()) {
    // One dual_raise per (request, commodity) slot: the frozen a_re.
    for (std::size_t slot = 0; slot < commodities.size(); ++slot) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kDualRaise;
      ev.request = id;
      ev.commodity = commodities[slot];
      ev.config_size = 1;
      ev.cost = duals[slot];
      obs::emit(ev);
    }
  }
}

void PdOmflp::depart(RequestId id, const Request& request,
                     SolutionLedger& ledger) {
  (void)request;
  (void)ledger;  // ledger-level re-accounting already happened
  OMFLP_CHECK(cost_ != nullptr, "PdOmflp: depart() before reset()");
  if (options_.deletion_policy == PdOptions::DeletionPolicy::kFrozen)
    return;
  PastRequest* const archived = archive_.find(id);
  OMFLP_REQUIRE(archived != nullptr,
                "PdOmflp: depart of an unknown or departed request");
  const PastRequest& pr = *archived;
  const bool incremental =
      options_.bid_mode == PdOptions::BidMode::kIncremental;

  // Withdraw the currently-posted clipped contribution of every slot:
  // min{a_je, d(F(e), j)} with the table's nearest distance is exactly
  // what archive_request posted and integrate_facility has been
  // shifting, so shifting it to zero removes the request from the row.
  double withdrawn = 0.0;     // bid mass leaving the rows
  double dual_removed = 0.0;  // dual objective leaving total_dual_
  for (const PastSlot& slot : pr.slots) {
    const CommodityId e = slot.commodity;
    const double v =
        std::min(slot.dual, nearest_offering(e, pr.location).dist);
    if (v > 0.0) withdrawn += v;
    if (incremental && v > 0.0 && bids_.active(e)) {
      OMFLP_PERF_ADD(bids_updated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      kernel::shift_clipped_bid(bids_.row(e), dist_->row(pr.location), v,
                                0.0, num_points_);
    }
    if (slot.dual > 0.0) withdraw_bidder(by_commodity_[e], id);
    total_dual_ -= slot.dual;
    dual_removed += slot.dual;
  }
  if (prediction_enabled()) {
    const double v =
        std::min(pr.dual_sum_large,
                 nearest_large(pr.location, commodities_of(pr)).dist);
    if (v > 0.0) withdrawn += v;
    if (incremental && v > 0.0) {
      OMFLP_PERF_ADD(bids_updated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      kernel::shift_clipped_bid(bids_.row(large_row_),
                                dist_->row(pr.location), v, 0.0,
                                num_points_);
    }
  }
  if (pr.dual_sum_large > 0.0) withdraw_bidder(large_bidders_, id);
  if (obs::tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kBidRollback;
    ev.request = id;
    ev.bid_mass = withdrawn;
    ev.cost = dual_removed;
    obs::emit(ev);
  }
  // Out of the archive, the request's list entries are tombstones that
  // every walk skips, in both bid modes, so the modes keep agreeing after
  // deletions. Its slot keeps the vectors' capacity for a later arrival.
  archive_.release(id);
}

std::vector<PdDualRecord> PdOmflp::dual_records() const {
  std::vector<PdDualRecord> records;
  records.reserve(archive_.size());
  archive_.for_each([&](RequestId, const PastRequest& pr) {
    PdDualRecord& record = records.emplace_back();
    record.location = pr.location;
    for (const PastSlot& slot : pr.slots) {
      record.commodities.push_back(slot.commodity);
      record.duals.push_back(slot.dual);
    }
  });
  return records;
}

std::optional<std::string> PdOmflp::audit_state(double tolerance) const {
  if (cost_ == nullptr) return std::nullopt;  // never reset: nothing to audit
  std::ostringstream os;
  const auto same_entry = [](const Nearest& a, const Nearest& b) {
    return same_bits(a.dist, b.dist) && a.id == b.id;
  };

  // 1. Every nearest-facility table entry vs a fresh scan, which keeps
  //    the first facility (lowest id) among equidistant ones.
  for (CommodityId e = 0; e < num_commodities_; ++e) {
    if ((near_small_offset_[e] == kNoTable) != offering_[e].empty()) {
      os << "nearest table for e=" << e << " is "
         << (offering_[e].empty() ? "active without" : "inactive with")
         << " an open facility offering it";
      return os.str();
    }
    for (PointId p = 0; p < num_points_ && !offering_[e].empty(); ++p) {
      Nearest fresh;
      for (const OpenRecord& f : offering_[e]) {
        const double d = (*dist_)(p, f.point);
        if (d < fresh.dist) fresh = Nearest{d, f.id};
      }
      const Nearest kept = nearest_offering(e, p);
      if (!same_entry(kept, fresh)) {
        os << "stale nearest table for e=" << e << " at p=" << p
           << ": facility " << kept.id << " at " << kept.dist
           << " vs fresh facility " << fresh.id << " at " << fresh.dist;
        return os.str();
      }
    }
  }
  for (std::size_t t = 0; t < near_large_.size(); ++t) {
    const CommoditySet& config = near_large_[t].config;
    if (t > 0 && (!near_large_[t - 1].config.is_subset_of(config) ||
                  near_large_[t - 1].config == config)) {
      os << "large tables " << t - 1 << " and " << t
         << " are not a strictly growing chain";
      return os.str();
    }
    for (PointId p = 0; p < num_points_; ++p) {
      Nearest fresh;
      for (const LargeRecord& lf : larges_) {
        if (!config.is_subset_of(lf.config)) continue;
        const double d = (*dist_)(p, lf.point);
        if (d < fresh.dist) fresh = Nearest{d, lf.id};
      }
      if (!same_entry(near_large_[t].nearest[p], fresh)) {
        os << "stale large table " << t << " at p=" << p;
        return os.str();
      }
    }
  }
  for (const LargeRecord& lf : larges_) {
    const bool tabled = std::any_of(
        near_large_.begin(), near_large_.end(),
        [&](const LargeTable& t) { return t.config == lf.config; });
    if (!tabled) {
      os << "large facility " << lf.id << " has no configuration table";
      return os.str();
    }
  }
  bool stale = false;
  archive_.for_each([&](RequestId j, const PastRequest& pr) {
    if (stale) return;
    Nearest fresh;
    for (const LargeRecord& lf : larges_) {
      bool covers = true;
      for (const PastSlot& slot : pr.slots)
        if (!lf.config.contains(slot.commodity) &&
            !excluded_.contains(slot.commodity))
          covers = false;
      if (!covers) continue;
      const double d = (*dist_)(pr.location, lf.point);
      if (d < fresh.dist) fresh = Nearest{d, lf.id};
    }
    const Nearest kept = nearest_large(pr.location, commodities_of(pr));
    if (!same_entry(kept, fresh)) {
      os << "nearest large facility for request " << j << ": table "
         << kept.id << " at " << kept.dist << " vs fresh " << fresh.id
         << " at " << fresh.dist;
      stale = true;
    }
  });
  if (stale) return os.str();

  // 2. The still-bidding lists: live entries are exactly the archived
  //    slots with a positive dual, ascending; tombstones (departed ids)
  //    are counted and never outnumber the live entries.
  std::vector<std::vector<Bidder>> expected(num_commodities_ + 1);
  archive_.for_each([&](RequestId j, const PastRequest& pr) {
    for (std::size_t slot = 0; slot < pr.slots.size(); ++slot)
      if (pr.slots[slot].dual > 0.0)
        expected[pr.slots[slot].commodity].push_back(
            Bidder{j, static_cast<std::uint32_t>(slot)});
    if (pr.dual_sum_large > 0.0)
      expected[num_commodities_].push_back(Bidder{j, 0});
  });
  for (std::size_t e = 0; e <= num_commodities_; ++e) {
    const bool large = e == num_commodities_;
    const BidderList& list = large ? large_bidders_ : by_commodity_[e];
    std::vector<Bidder> live;
    std::size_t tombstones = 0;
    bool ascending = true;
    for (std::size_t i = 0; i < list.entries.size(); ++i) {
      const Bidder& b = list.entries[i];
      if (i > 0 && list.entries[i - 1].request >= b.request) ascending = false;
      if (!archive_.resident(b.request))
        ++tombstones;
      else
        live.push_back(b);
    }
    const bool same = std::equal(
        live.begin(), live.end(), expected[e].begin(), expected[e].end(),
        [](const Bidder& x, const Bidder& y) {
          return x.request == y.request && x.slot == y.slot;
        });
    if (!ascending || !same || tombstones != list.tombstones ||
        2 * tombstones > list.entries.size()) {
      os << (large ? std::string("large-side")
                   : "commodity " + std::to_string(e))
         << " still-bidding list: " << live.size() << " live entries, "
         << tombstones << " tombstones (counted " << list.tombstones
         << "), ascending " << ascending << "; the archive has "
         << expected[e].size() << " still-bidding slots";
      return os.str();
    }
  }

  // 3. Incremental bid sums vs from-scratch recomputation, plus the
  //    constraint-(3) invariant Σ_j bids ≤ f^{{e}}_m.
  std::vector<double> fresh_row;
  for (CommodityId e = 0; e < num_commodities_; ++e) {
    if (by_commodity_[e].entries.empty() && !bids_.active(e)) continue;
    recompute_small_bid_row(e, fresh_row);
    const bool check_drift =
        options_.bid_mode == PdOptions::BidMode::kIncremental &&
        bids_.active(e);
    const double* maintained = check_drift ? bids_.row(e) : nullptr;
    for (PointId m = 0; m < num_points_; ++m) {
      if (check_drift && std::abs(maintained[m] - fresh_row[m]) >
                             tolerance * (1.0 + fresh_row[m])) {
        os << "incremental small bids drifted for e=" << e << " at m=" << m
           << ": " << maintained[m] << " vs " << fresh_row[m];
        return os.str();
      }
      const double f = cost_->singleton_cost(m, e);
      if (fresh_row[m] > f + tolerance * (1.0 + f)) {
        os << "constraint (3) invariant violated for e=" << e
           << " at m=" << m << ": bids " << fresh_row[m] << " > f " << f;
        return os.str();
      }
    }
  }

  // 4. Same for the large side (constraint (4) invariant against the
  //    *current* large configuration).
  if (prediction_enabled()) {
    recompute_large_bid_row(fresh_row);
    const bool check_drift =
        options_.bid_mode == PdOptions::BidMode::kIncremental;
    const double* maintained = check_drift ? bids_.row(large_row_) : nullptr;
    for (PointId m = 0; m < num_points_; ++m) {
      if (check_drift && std::abs(maintained[m] - fresh_row[m]) >
                             tolerance * (1.0 + fresh_row[m])) {
        os << "incremental large bids drifted at m=" << m << ": "
           << maintained[m] << " vs " << fresh_row[m];
        return os.str();
      }
      if (!large_config_.empty()) {
        const double f = cost_->open_cost(m, large_config_);
        if (fresh_row[m] > f + tolerance * (1.0 + f)) {
          os << "constraint (4) invariant violated at m=" << m << ": bids "
             << fresh_row[m] << " > f " << f;
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

void PdOmflp::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "PdOmflp: serve() before reset()");
  const RequestId request_id = ledger.num_requests() - 1;
  const PointId loc = request.location;

  // The kSeenUnion prediction set includes the current request's demands.
  if (!request.commodities.is_subset_of(seen_)) {
    seen_ |= request.commodities;
    if (options_.large_config == PdOptions::LargeConfig::kSeenUnion)
      refresh_large_config();
  }

  // Per-slot state lives in round_, reused across requests.
  std::vector<CommodityId>& commodities = round_.commodities;
  commodities.clear();
  request.commodities.for_each(
      [&](CommodityId e) { commodities.push_back(e); });
  const std::size_t k = commodities.size();

  std::vector<double>& a = round_.a;
  a.assign(k, 0.0);
  std::vector<char>& served = round_.served;
  served.assign(k, 0);
  std::size_t unserved = k;
  double raised = 0.0;

  // Eligibility for the large-facility constraints (2)/(4): every slot in
  // the paper's algorithm, everything outside the excluded set in the §5
  // heavy-commodity variant.
  std::vector<char>& eligible = round_.eligible;
  eligible.assign(k, 0);
  std::size_t unserved_eligible = 0;
  for (std::size_t slot = 0; slot < k; ++slot) {
    eligible[slot] = !excluded_.contains(commodities[slot]);
    if (eligible[slot]) ++unserved_eligible;
  }
  double sum_eligible = 0.0;  // Σ a_re over eligible slots (frozen or not)

  // Round-start snapshots; permanent facilities do not change mid-round.
  std::vector<double>& dist1 = round_.dist1;
  std::vector<FacilityId>& fac1 = round_.fac1;
  dist1.resize(k);
  fac1.resize(k);
  for (std::size_t slot = 0; slot < k; ++slot) {
    const Nearest nearest = nearest_offering(commodities[slot], loc);
    dist1[slot] = nearest.dist;
    fac1[slot] = nearest.id;
  }
  const Nearest near_large = prediction_enabled() && unserved_eligible > 0
                                 ? nearest_large(loc, commodities)
                                 : Nearest{};
  const double dhat = near_large.dist;

  // Per-slot singleton cost rows and bid rows — raw pointers into the
  // cost-row arena, the bid arena (incremental) or the reusable
  // reference-mode scratch. Every cost row is ensured before any pointer
  // is taken: activation can grow the arena and move earlier rows.
  if (ref_bid_scratch_.size() < k) ref_bid_scratch_.resize(k);
  for (std::size_t slot = 0; slot < k; ++slot)
    ensure_singleton_cost_row(commodities[slot]);
  std::vector<const double*>& f_small = round_.f_small;
  std::vector<const double*>& bids_small = round_.bids_small;
  f_small.resize(k);
  bids_small.resize(k);
  for (std::size_t slot = 0; slot < k; ++slot) {
    const CommodityId e = commodities[slot];
    f_small[slot] = cost_rows_.row(e);
    if (options_.bid_mode == PdOptions::BidMode::kIncremental &&
        bids_.active(e)) {
      bids_small[slot] = bids_.row(e);
    } else {
      small_bid_row(e, ref_bid_scratch_[slot]);
      bids_small[slot] = ref_bid_scratch_[slot].data();
    }
  }

  const double* f_large = nullptr;
  const double* bids_large = nullptr;
  const bool can_open_large = prediction_enabled() &&
                              unserved_eligible > 0 && !large_config_.empty();
  if (can_open_large) {
    f_large = large_cost_row(large_config_);
    if (options_.bid_mode == PdOptions::BidMode::kIncremental) {
      bids_large = bids_.row(large_row_);
    } else {
      large_bid_row(large_bid_scratch_);
      bids_large = large_bid_scratch_.data();
    }
  }

  // Bid rows and permanent facilities do not change mid-round, so one
  // distance row serves every event scan of the round. On the fallback
  // path the row is copied into owned scratch: the table's per-thread
  // row slot is single-slot, and a pointer held across the whole event
  // loop must not be silently repointed by a future row() call.
  // Counters still tick once per sweep.
  const double* dist_loc;
  if (dist_->cached()) {
    dist_loc = dist_->row(loc);
  } else {
    const double* fallback = dist_->row(loc);
    dist_loc_scratch_.assign(fallback, fallback + num_points_);
    dist_loc = dist_loc_scratch_.data();
  }

  // Round outcome.
  std::vector<PointId>& temp_point = round_.temp_point;
  std::vector<char>& via_existing = round_.via_existing;
  std::vector<char>& via_large = round_.via_large;
  temp_point.assign(k, kInvalidPoint);
  via_existing.assign(k, 0);
  via_large.assign(k, 0);
  FacilityId large_serving = kInvalidFacility;        // existing (2)
  PointId new_large_point = kInvalidPoint;            // new (4)
  bool opened_large = false;

  // Decision-time captures for the trace sink (bid rows are mutated by
  // archive_request after the round, so the values must be taken when the
  // constraint fires, not at commit). Filled only while tracing.
  const bool tracing = obs::tracing();
  std::vector<double>& traced_bid_mass = round_.traced_bid_mass;
  std::vector<double>& traced_tightness = round_.traced_tightness;
  double traced_large_bid_mass = 0.0;
  double traced_large_tightness = 0.0;
  if (tracing) {
    traced_bid_mass.assign(k, 0.0);
    traced_tightness.assign(k, 0.0);
  }

  while (unserved > 0) {
    // Find the next tightness event. Priority on ties: (2) and (4) end the
    // round and subsume any simultaneous (1)/(3) event (the pseudocode
    // processes lines 3-5 then 6-9 in the same instant, with 6-9
    // overriding), then (1) before (3), smaller slot, smaller point.
    struct Event {
      double delta = std::numeric_limits<double>::infinity();
      int priority = 99;  // 0:(2) 1:(4) 2:(1) 3:(3)
      std::size_t slot = 0;
      PointId point = kInvalidPoint;
    };
    Event best;
    auto consider = [&](double delta, int priority, std::size_t slot,
                        PointId point) {
      if (delta < best.delta ||
          (delta == best.delta &&
           (priority < best.priority ||
            (priority == best.priority &&
             (slot < best.slot ||
              (slot == best.slot && point < best.point)))))) {
        best = Event{delta, priority, slot, point};
      }
    };

    // Constraint (2): the eligible investment reaches d(F̂, r).
    if (prediction_enabled() && unserved_eligible > 0 &&
        std::isfinite(dhat))
      consider(positive_part(dhat - sum_eligible) /
                   static_cast<double>(unserved_eligible),
               0, 0, kInvalidPoint);

    // Constraint (4): joint investment pays for a new large facility at m.
    if (can_open_large && unserved_eligible > 0) {
      OMFLP_PERF_ADD(bids_evaluated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      const kernel::RowEvent event = kernel::min_tightness_over_row(
          dist_loc, f_large, bids_large, sum_eligible,
          static_cast<double>(unserved_eligible), num_points_);
      consider(event.delta, 1, 0, static_cast<PointId>(event.index));
    }

    for (std::size_t slot = 0; slot < k; ++slot) {
      if (served[slot]) continue;
      // Constraint (1): a_re reaches the nearest facility offering e.
      if (std::isfinite(dist1[slot]))
        consider(positive_part(dist1[slot] - a[slot]), 2, slot,
                 kInvalidPoint);
      // Constraint (3): investment pays for a small facility {e} at m.
      OMFLP_PERF_ADD(bids_evaluated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      const kernel::RowEvent event = kernel::min_tightness_over_row(
          dist_loc, f_small[slot], bids_small[slot], a[slot], 1.0,
          num_points_);
      consider(event.delta, 3, slot, static_cast<PointId>(event.index));
    }

    OMFLP_CHECK(std::isfinite(best.delta),
                "PdOmflp: no constraint can become tight — facility costs "
                "must be finite");

    // Advance the duals of all unserved commodities by the event time.
    if (best.delta > 0.0) {
      for (std::size_t slot = 0; slot < k; ++slot) {
        if (served[slot]) continue;
        a[slot] += best.delta;
        if (eligible[slot]) sum_eligible += best.delta;
      }
      raised += best.delta;
    }

    // (2)/(4): every eligible commodity of s_r is (re)assigned to the
    // large facility; temporary facilities of reassigned slots are
    // discarded (Algorithm 1 lines 7-9). Excluded (heavy) slots continue
    // through constraints (1)/(3).
    auto serve_eligible_by_large = [&] {
      for (std::size_t slot = 0; slot < k; ++slot) {
        if (!eligible[slot]) continue;
        if (!served[slot]) --unserved;
        served[slot] = 1;
        via_large[slot] = 1;
        via_existing[slot] = 0;
        temp_point[slot] = kInvalidPoint;
      }
      unserved_eligible = 0;
    };

    switch (best.priority) {
      case 0: {  // (2) — connect to the nearest existing large facility.
        large_serving = near_large.id;
        serve_eligible_by_large();
        if (options_.record_trace)
          trace_.push_back(PdTraceEvent{request_id, 2, kInvalidCommodity,
                                        ledger.facility(large_serving)
                                            .location,
                                        raised});
        break;
      }
      case 1: {  // (4) — open a new large facility at best.point.
        opened_large = true;
        new_large_point = best.point;
        if (tracing) {
          traced_large_bid_mass = bids_large[best.point];
          traced_large_tightness = raised;
        }
        serve_eligible_by_large();
        if (options_.record_trace)
          trace_.push_back(PdTraceEvent{request_id, 4, kInvalidCommodity,
                                        best.point, raised});
        break;
      }
      case 2: {  // (1) — serve e by the nearest existing facility.
        served[best.slot] = 1;
        via_existing[best.slot] = 1;
        --unserved;
        if (eligible[best.slot]) --unserved_eligible;
        if (options_.record_trace)
          trace_.push_back(PdTraceEvent{request_id, 1,
                                        commodities[best.slot],
                                        ledger.facility(fac1[best.slot])
                                            .location,
                                        raised});
        break;
      }
      case 3: {  // (3) — temporarily open a small facility {e} at m.
        served[best.slot] = 1;
        temp_point[best.slot] = best.point;
        if (tracing) {
          traced_bid_mass[best.slot] = bids_small[best.slot][best.point];
          traced_tightness[best.slot] = raised;
        }
        --unserved;
        if (eligible[best.slot]) --unserved_eligible;
        if (options_.record_trace)
          trace_.push_back(PdTraceEvent{request_id, 3,
                                        commodities[best.slot], best.point,
                                        raised});
        break;
      }
      default:
        OMFLP_CHECK(false, "PdOmflp: invalid event");
    }
  }

  // Commit the round's decisions to the ledger; temporary facilities are
  // discarded when the round ended through (2)/(4) (lines 8-9 of
  // Algorithm 1), otherwise they become permanent (line 10).
  std::vector<NewFacility>& committed = round_.committed;
  committed.clear();

  // facility_open trace events, emitted at commit with the decision-time
  // bid/tightness captures. Contributor lists are rebuilt from the
  // archived state: each past request's clipped bid at the opening point
  // plus the current request's own term — the left-hand side of the
  // constraint that went tight.
  const auto emit_small_open = [&](std::size_t slot, FacilityId id) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFacilityOpen;
    ev.request = request_id;
    ev.constraint = 3;
    ev.commodity = commodities[slot];
    ev.facility = id;
    ev.point = temp_point[slot];
    ev.config_size = 1;
    ev.cost = ledger.facility(id).open_cost;
    ev.bid_mass = traced_bid_mass[slot];
    ev.tightness = traced_tightness[slot];
    std::vector<TraceContributor> contribs;
    const CommodityId e = commodities[slot];
    const double* dist_m = dist_->row(temp_point[slot]);
    for (const Bidder& b : by_commodity_[e].entries) {
      const PastRequest* pr = archive_.find(b.request);
      if (pr == nullptr) continue;
      const double v = std::min(pr->slots[b.slot].dual,
                                nearest_offering(e, pr->location).dist);
      if (v <= 0.0) continue;
      const double amount = positive_part(v - dist_m[pr->location]);
      if (amount > 0.0)
        contribs.push_back(TraceContributor{b.request, amount});
    }
    const double own = positive_part(a[slot] - dist_loc[temp_point[slot]]);
    if (own > 0.0)
      contribs.push_back(TraceContributor{request_id, own});
    set_trace_contributors(ev, std::move(contribs));
    obs::emit(ev);
  };
  const auto emit_large_open = [&](FacilityId id) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFacilityOpen;
    ev.request = request_id;
    ev.constraint = 4;
    ev.facility = id;
    ev.point = new_large_point;
    ev.config_size = large_config_.count();
    ev.cost = ledger.facility(id).open_cost;
    ev.bid_mass = traced_large_bid_mass;
    ev.tightness = traced_large_tightness;
    std::vector<TraceContributor> contribs;
    const double* dist_m = dist_->row(new_large_point);
    for (const Bidder& b : large_bidders_.entries) {
      const PastRequest* pr = archive_.find(b.request);
      if (pr == nullptr) continue;
      const double v =
          std::min(pr->dual_sum_large,
                   nearest_large(pr->location, commodities_of(*pr)).dist);
      if (v <= 0.0) continue;
      const double amount = positive_part(v - dist_m[pr->location]);
      if (amount > 0.0)
        contribs.push_back(TraceContributor{b.request, amount});
    }
    const double own = positive_part(sum_eligible - dist_loc[new_large_point]);
    if (own > 0.0)
      contribs.push_back(TraceContributor{request_id, own});
    set_trace_contributors(ev, std::move(contribs));
    obs::emit(ev);
  };

  FacilityId large_id = large_serving;
  if (opened_large) {
    large_id = ledger.open_facility(new_large_point, large_config_);
    committed.push_back(NewFacility{large_id, true});
    if (tracing) emit_large_open(large_id);
  }
  for (std::size_t slot = 0; slot < k; ++slot) {
    if (via_large[slot]) {
      OMFLP_CHECK(large_id != kInvalidFacility,
                  "PdOmflp: large assignment without a large facility");
      ledger.assign(commodities[slot], large_id);
    } else if (temp_point[slot] != kInvalidPoint) {
      const FacilityId id = ledger.open_facility(
          temp_point[slot],
          CommoditySet::singleton(num_commodities_, commodities[slot]));
      committed.push_back(NewFacility{id, false});
      if (tracing) emit_small_open(slot, id);
      ledger.assign(commodities[slot], id);
    } else {
      OMFLP_CHECK(via_existing[slot] && fac1[slot] != kInvalidFacility,
                  "PdOmflp: slot finished without an assignment");
      ledger.assign(commodities[slot], fac1[slot]);
    }
  }

  // The ledger's records outlive the loop: integrate_facility opens
  // nothing, so the config references stay valid.
  for (const NewFacility& nf : committed) {
    const OpenFacilityRecord& f = ledger.facility(nf.id);
    integrate_facility(f.location, f.config, nf.id, nf.is_large);
  }

  archive_request(request_id, request, commodities, a);
}

namespace {

const char* bid_mode_tag(PdOptions::BidMode m) {
  return m == PdOptions::BidMode::kIncremental ? "incremental" : "reference";
}
const char* prediction_tag(PdOptions::Prediction p) {
  return p == PdOptions::Prediction::kOn ? "on" : "off";
}
const char* large_config_tag(PdOptions::LargeConfig c) {
  return c == PdOptions::LargeConfig::kFullS ? "full-s" : "seen-union";
}
const char* deletion_tag(PdOptions::DeletionPolicy d) {
  return d == PdOptions::DeletionPolicy::kRollback ? "rollback" : "frozen";
}

}  // namespace

void PdOmflp::serialize_state(CkptWriter& writer) const {
  // Options guard: a checkpoint only restores into the same variant.
  writer.line("pd-options")
      .tok(bid_mode_tag(options_.bid_mode))
      .tok(prediction_tag(options_.prediction))
      .tok(large_config_tag(options_.large_config))
      .tok(deletion_tag(options_.deletion_policy))
      .set(excluded_);
  writer.line("offering-index").u(offering_.size());
  for (const auto& row : offering_) {
    writer.line("offering").u(row.size());
    for (const OpenRecord& f : row) writer.u(f.point).u(f.id);
  }
  writer.line("larges").u(larges_.size());
  for (const LargeRecord& f : larges_)
    writer.line("large").u(f.point).u(f.id).set(f.config);
  writer.line("seen").set(seen_);
  writer.line("past").u(archive_.size());
  archive_.for_each([&](RequestId id, const PastRequest& pr) {
    writer.line("past-request")
        .u(id)
        .u(pr.location)
        .u(pr.slots.size())
        .d(pr.dual_sum_large)
        .d(nearest_large(pr.location, commodities_of(pr)).dist);
    writer.line("past-commodities");
    for (const PastSlot& slot : pr.slots) writer.u(slot.commodity);
    writer.line("past-duals");
    for (const PastSlot& slot : pr.slots) writer.d(slot.dual);
    writer.line("past-small-dist");
    for (const PastSlot& slot : pr.slots)
      writer.d(nearest_offering(slot.commodity, pr.location).dist);
  });
  // Incremental bid rows, bitwise, in canonical (row id) order — slot
  // order inside the arena is an activation-history artifact that never
  // affects numerics.
  std::vector<std::size_t> active_rows;
  for (std::size_t r = 0; r < bids_.num_rows(); ++r)
    if (bids_.active(r)) active_rows.push_back(r);
  writer.line("bid-rows").u(active_rows.size()).u(bids_.row_length());
  for (const std::size_t r : active_rows) {
    writer.line("bid-row").u(r);
    const double* row = bids_.row(r);
    for (std::size_t m = 0; m < bids_.row_length(); ++m) writer.d(row[m]);
  }
  writer.line("dual-total").d(total_dual_);
  writer.line("trace").u(trace_.size());
  for (const PdTraceEvent& ev : trace_) {
    writer.line("trace-event")
        .u(ev.request)
        .u(static_cast<std::uint64_t>(ev.constraint))
        .u(ev.commodity)
        .u(ev.point)
        .d(ev.raised);
  }
}

void PdOmflp::restore_state(CkptReader& reader, RequestId num_requests) {
  reader.expect("pd-options");
  if (reader.tok() != bid_mode_tag(options_.bid_mode) ||
      reader.tok() != prediction_tag(options_.prediction) ||
      reader.tok() != large_config_tag(options_.large_config) ||
      reader.tok() != deletion_tag(options_.deletion_policy))
    reader.fail("checkpoint was written by a different PD-OMFLP variant");
  if (!(reader.set() == excluded_))
    reader.fail("checkpoint excluded-commodity set mismatch");
  reader.expect("offering-index");
  if (reader.u() != offering_.size())
    reader.fail("offering index universe mismatch");
  // The nearest-facility tables are rebuilt by replaying every opening
  // in its original order, so they match the live tables bitwise.
  for (CommodityId e = 0; e < num_commodities_; ++e) {
    std::vector<OpenRecord>& row = offering_[e];
    reader.expect("offering");
    const std::uint64_t n = reader.u();
    row.reserve(capped_reserve(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      OpenRecord f;
      f.point = reader.point(num_points_);
      f.id = static_cast<FacilityId>(reader.u());
      row.push_back(f);
      sweep_facility(small_table(e), f.point, f.id);
    }
  }
  reader.expect("larges");
  const std::uint64_t num_larges = reader.u();
  larges_.reserve(capped_reserve(num_larges));
  for (std::uint64_t i = 0; i < num_larges; ++i) {
    reader.expect("large");
    LargeRecord f;
    f.point = reader.point(num_points_);
    f.id = static_cast<FacilityId>(reader.u());
    f.config = reader.set();
    if (f.config.universe_size() != num_commodities_)
      reader.fail("large facility config universe mismatch");
    if (!add_large_to_tables(f))
      reader.fail("large facility configurations are not nested");
    larges_.push_back(std::move(f));
  }
  reader.expect("seen");
  seen_ = reader.set();
  if (seen_.universe_size() != num_commodities_)
    reader.fail("seen-union universe mismatch");
  refresh_large_config();
  // Versions 1 and 2 archived every arrival in id order, each with a
  // departed flag; version 3 writes only the archive's entries, each with
  // its id.
  const bool every_arrival = reader.version() < 3;
  reader.expect("past");
  const std::uint64_t num_past = reader.u();
  archive_.reserve(capped_reserve(num_past));
  for (std::uint64_t j = 0; j < num_past; ++j) {
    reader.expect("past-request");
    // Ids index the archive's id map: one the snapshot does not vouch for
    // is refused before the map grows to it.
    const std::uint64_t id = every_arrival ? j : reader.u();
    if (id >= num_requests)
      reader.fail("past request id beyond the request count");
    if (id < archive_.next_id())
      reader.fail("past request ids out of order or duplicated");
    PastRequest pr;
    pr.location = reader.point(num_points_);
    const std::uint64_t slots = reader.u();
    pr.dual_sum_large = reader.d();
    const double large_dist = reader.d();
    const bool departed = every_arrival && reader.b();
    pr.slots.reserve(capped_reserve(slots));
    reader.expect("past-commodities");
    for (std::uint64_t i = 0; i < slots; ++i) {
      const auto e = static_cast<CommodityId>(reader.u());
      if (e >= num_commodities_) reader.fail("past commodity out of range");
      pr.slots.push_back(PastSlot{e, 0.0});
    }
    reader.expect("past-duals");
    for (PastSlot& slot : pr.slots) slot.dual = reader.d();
    // The archived distances are derived state: they must equal the
    // rebuilt tables bit for bit, or the checkpoint is inconsistent.
    reader.expect("past-small-dist");
    for (const PastSlot& slot : pr.slots)
      if (!same_bits(reader.d(),
                     nearest_offering(slot.commodity, pr.location).dist))
        reader.fail("past-small-dist disagrees with the nearest-facility "
                    "tables");
    if (!same_bits(large_dist,
                   nearest_large(pr.location, commodities_of(pr)).dist))
      reader.fail("past large distance disagrees with the nearest-facility "
                  "tables");
    // A departed request of an older file stays out of the archive, as
    // depart() would have left it. The still-bidding lists are a pure
    // function of the archive.
    if (departed) continue;
    for (std::size_t slot = 0; slot < pr.slots.size(); ++slot)
      if (pr.slots[slot].dual > 0.0)
        by_commodity_[pr.slots[slot].commodity].entries.push_back(
            Bidder{id, static_cast<std::uint32_t>(slot)});
    if (pr.dual_sum_large > 0.0)
      large_bidders_.entries.push_back(Bidder{id, 0});
    archive_.add(id) = std::move(pr);
  }
  reader.expect("bid-rows");
  const std::uint64_t num_bid_rows = reader.u();
  if (reader.u() != bids_.row_length())
    reader.fail("bid row length differs from the metric");
  for (std::uint64_t i = 0; i < num_bid_rows; ++i) {
    reader.expect("bid-row");
    const std::uint64_t r = reader.u();
    if (r >= bids_.num_rows()) reader.fail("bid row id out of range");
    double* row = bids_.active(static_cast<std::size_t>(r))
                      ? bids_.row(static_cast<std::size_t>(r))
                      : bids_.activate(static_cast<std::size_t>(r));
    for (std::size_t m = 0; m < bids_.row_length(); ++m) row[m] = reader.d();
  }
  reader.expect("dual-total");
  total_dual_ = reader.d();
  if (every_arrival) {
    // The older files' second copy of the duals: checked, then dropped
    // (dual_records() reads the archive).
    reader.expect("dual-records");
    const std::uint64_t num_dual_records = reader.u();
    for (std::uint64_t i = 0; i < num_dual_records; ++i) {
      reader.expect("dual-record");
      if (reader.u() >= num_points_) reader.fail("dual record out of range");
      const std::uint64_t slots = reader.u();
      for (std::uint64_t k = 0; k < slots; ++k) {
        if (reader.u() >= num_commodities_)
          reader.fail("dual record commodity out of range");
        (void)reader.d();
      }
    }
  }
  reader.expect("trace");
  const std::uint64_t num_trace = reader.u();
  trace_.reserve(capped_reserve(num_trace));
  for (std::uint64_t i = 0; i < num_trace; ++i) {
    reader.expect("trace-event");
    PdTraceEvent ev;
    ev.request = reader.u();
    ev.constraint = static_cast<int>(reader.u());
    ev.commodity = static_cast<CommodityId>(reader.u());
    ev.point = static_cast<PointId>(reader.u());
    ev.raised = reader.d();
    trace_.push_back(ev);
  }
}

}  // namespace omflp

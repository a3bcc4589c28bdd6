// PD-OMFLP — the paper's deterministic primal–dual algorithm (Algorithm 1,
// Section 3), O(√|S|·log n)-competitive under Condition 1 (Theorem 4).
//
// On arrival of request r with demand set s_r, the algorithm raises the
// dual variables a_re of all not-yet-served commodities e ∈ s_r
// simultaneously at unit rate and reacts to the first constraint that
// becomes tight:
//
//   (1) a_re = d(F(e), r)                         — connect e to the
//       nearest open facility offering e (small or large);
//   (3) (a_re − d(m,r))+ + Σ_j (min{a_je, d(F(e),j)} − d(m,j))+ = f^{e}_m
//       — enough joint investment at point m: a *small* facility {e}
//       opens temporarily at m and e is served by it;
//   (2) Σ_{e∈s_r} a_re = d(F̂, r)                  — the joint investment
//       reaches the nearest *large* facility: all of s_r is re-assigned to
//       it and this round's temporary facilities are discarded;
//   (4) (Σ_e a_re − d(m,r))+ + Σ_j (min{Σ_e a_je, d(F̂,j)} − d(m,j))+ = f^S_m
//       — enough joint investment for a new large facility at m: it opens
//       (irrevocably), serves all of s_r, temporary facilities discarded.
//
// When the dual-raising finishes without (2)/(4), the temporary small
// facilities become permanent. Only permanent facilities reach the ledger,
// so ledger decisions are irrevocable as the model demands.
//
// The continuous raising is simulated exactly: all four constraint
// families are piecewise-linear in the raised amount Δ, so the algorithm
// computes the tightness time of each candidate event in closed form,
// advances to the minimum and processes events in a deterministic
// tie-break order (constraint number, then commodity id, then point id).
//
// Bid sums over past requests (the Σ_j terms) are supplied by one of two
// interchangeable strategies, selectable via PdOptions::bid_mode:
//   * kReference   — recompute every sum from first principles at each
//                    arrival (obviously correct; O(bidders·|M|) per
//                    arrival);
//   * kIncremental — maintain per-(commodity, point) prefix sums, updated
//                    when duals freeze and when facilities open.
// Both must produce identical runs; tests/test_pd_omflp.cpp asserts trace
// equality on randomized instances.
//
// The distances d(F(e), r) and d(F̂, r) come from nearest-facility tables:
// facilities never close, so each nearest distance only falls, and one
// |M|-row sweep per opening keeps a per-point table exact. Arrivals read
// them in O(1), and openings walk only the requests still bidding.
//
// Options beyond the paper (all default to the paper's behaviour):
//   * prediction = kOff disables large facilities entirely (constraints
//     (2)/(4) never fire). This is the ablation for the §2 discussion that
//     *without* prediction every algorithm is Ω(|S|)-competitive.
//   * large_config = kSeenUnion opens "large" facilities with the union of
//     all commodities seen so far instead of the full S — a natural
//     future-work variant (the paper's closing remarks discuss restricting
//     prediction). Constraint (2)/(4) then measure distances to facilities
//     that cover the *request's* demand set. Requires a monotone cost
//     model (f^a ≤ f^b for a ⊆ b); all shipped models are monotone.
//   * excluded_from_prediction implements the §5 closing-remarks recipe
//     for *heavy* commodities: large facilities carry S minus the excluded
//     set, constraints (2)/(4) only collect the investment of non-excluded
//     commodities, and excluded commodities are always served through the
//     small-facility constraints (1)/(3). Pair with
//     detect_heavy_commodities() from cost/heavy.hpp.
#pragma once

#include <optional>
#include <ranges>
#include <string>
#include <vector>

#include "core/online_algorithm.hpp"
#include "instance/checkpoint_io.hpp"
#include "kernel/bid_plane.hpp"
#include "metric/distance_oracle.hpp"
#include "support/id_slot_pool.hpp"

namespace omflp {

struct PdOptions {
  enum class BidMode { kReference, kIncremental };
  enum class Prediction { kOn, kOff };
  enum class LargeConfig { kFullS, kSeenUnion };
  /// What depart() does on a dynamic stream (static runs never call it):
  ///   * kRollback — withdraw the departed request's frozen bids from
  ///     every bid row (shift its clipped contribution to zero), take its
  ///     duals out of the dual total and drop it from the archive, so
  ///     future facility openings are no longer subsidized by ghosts.
  ///     Decisions already made stay irrevocable.
  ///   * kFrozen   — keep the bids (the sunk-investment policy).
  enum class DeletionPolicy { kRollback, kFrozen };

  BidMode bid_mode = BidMode::kIncremental;
  Prediction prediction = Prediction::kOn;
  LargeConfig large_config = LargeConfig::kFullS;
  DeletionPolicy deletion_policy = DeletionPolicy::kRollback;
  /// Commodities kept out of large facilities (§5 heavy commodities).
  /// Default-constructed (empty universe) means "exclude nothing"; a
  /// non-empty universe must match the instance's |S|.
  CommoditySet excluded_from_prediction;
  /// Record the per-event trace (for equivalence tests / debugging).
  bool record_trace = false;
};

/// One request's frozen dual variables, exported for the dual-feasibility
/// checker (Lemmas 14/16) and the Corollary 8 test.
struct PdDualRecord {
  PointId location = 0;
  std::vector<CommodityId> commodities;  // s_r in increasing order
  std::vector<double> duals;             // a_re, aligned with commodities
};

struct PdTraceEvent {
  RequestId request = 0;
  int constraint = 0;          // 1..4, which family fired
  CommodityId commodity = 0;   // kInvalidCommodity for (2)/(4)
  PointId point = 0;           // facility point involved
  double raised = 0.0;         // total Δ raised in the round up to the event
};

class PdOmflp final : public OnlineAlgorithm {
 public:
  explicit PdOmflp(PdOptions options = {});

  std::string name() const override;
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  /// Deletion handling per PdOptions::deletion_policy (kRollback by
  /// default): the departed request's clipped bid contributions are
  /// shifted out of the small and large rows and its archive entry is
  /// released, in both bid modes, so reference and incremental dynamic
  /// runs stay trace-identical.
  void depart(RequestId id, const Request& request,
              SolutionLedger& ledger) override;

  /// Checkpoint: the facility indexes, every archived request's id,
  /// frozen duals and nearest-facility distances (read from the tables),
  /// the incremental bid rows (bitwise — recomputing them on restore would
  /// only agree to audit tolerance, not bit-for-bit) and an options guard.
  /// Caches the cost model determines (cost rows, the large cost row) are
  /// rebuilt lazily. The nearest-facility tables and the still-bidding
  /// lists are rebuilt from the facility indexes and the archive; restore
  /// rejects archived distances that disagree with the rebuilt tables and
  /// large configurations that are not nested. Version 1 and 2 files
  /// archived every arrival, departed ones included, plus a second copy
  /// of the duals (`dual-records`): restore drops the departed entries and
  /// reads the copy only to check it.
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

  /// Σ_r Σ_{e∈s_r} a_re — the dual objective before scaling. On dynamic
  /// runs with kRollback, departed requests' duals leave the sum (the
  /// dual bound is argued on the surviving set).
  double total_dual() const noexcept { return total_dual_; }

  /// Deep self-check of the algorithm's internal state (test hook): every
  /// nearest-facility table entry (distance and facility id) against a
  /// fresh scan, the large-configuration chain, the still-bidding lists
  /// against the archive, the incremental bid sums against from-scratch
  /// recomputation, and the invariants "Σ_j bids ≤ f^{{e}}_m"
  /// (constraint 3) and "Σ_j bids ≤ f^{large}_m" (constraint 4) at every
  /// point. Returns a
  /// description of the first inconsistency, or nullopt when clean.
  /// O(n·|M|·|S|); call after serve()s, not inside hot loops.
  std::optional<std::string> audit_state(double tolerance = 1e-7) const;
  /// The archived requests' frozen duals in id order. Every request on a
  /// static run; on a dynamic one under kRollback, departed requests have
  /// left the archive.
  std::vector<PdDualRecord> dual_records() const;
  /// Requests in the archive: every arrival under kFrozen and on static
  /// runs, the ones that have not departed under kRollback.
  std::size_t num_archived() const noexcept { return archive_.size(); }
  const std::vector<PdTraceEvent>& trace() const noexcept { return trace_; }

  const PdOptions& options() const noexcept { return options_; }

  /// The contiguous bid arena: rows 0..|S|-1 are the per-commodity small
  /// bids, row |S| the large side. Exposed for the activated_rows stat
  /// (sparse workloads activate only the commodities they touch) and the
  /// kernel-layer tests.
  const kernel::BidPlane& bid_plane() const noexcept { return bids_; }

 private:
  // ---- per-run immutable context ------------------------------------------
  PdOptions options_;
  CostModelPtr cost_;
  std::shared_ptr<const DistanceOracle> dist_;
  CommodityId num_commodities_ = 0;
  std::size_t num_points_ = 0;

  // ---- facility state -----------------------------------------------------
  /// offering_[e]: all permanent facilities whose config contains e.
  std::vector<std::vector<OpenRecord>> offering_;
  struct LargeRecord {
    PointId point = 0;
    FacilityId id = kInvalidFacility;
    CommoditySet config;  // full S in kFullS mode; the union in kSeenUnion
  };
  std::vector<LargeRecord> larges_;
  /// Union of commodities demanded so far (kSeenUnion's prediction set).
  CommoditySet seen_;
  /// Normalized excluded set (empty set over S when the option is unset).
  CommoditySet excluded_;
  /// The configuration a new large facility opens with right now: full S
  /// or the seen union, minus the excluded commodities.
  CommoditySet large_config_;

  // ---- nearest-facility tables ---------------------------------------------
  /// Facilities never close, so every nearest distance only falls: each
  /// table is updated with one |M|-row sweep when a facility opens and is
  /// exact at every point. A strict `<` keeps the lowest id on ties, as
  /// facilities open in id order.
  struct Nearest {
    double dist = kInfiniteDistance;
    FacilityId id = kInvalidFacility;
  };
  /// Row e holds, per point p, the nearest permanent facility offering e.
  /// Rows are activated by the first facility offering e, so the arena
  /// stays proportional to the commodities ever offered.
  std::vector<Nearest> near_small_;
  /// Offset of row e in near_small_, kNoTable while inactive.
  std::vector<std::size_t> near_small_offset_;
  static constexpr std::size_t kNoTable = ~std::size_t{0};
  /// Large configurations are nested in opening order (seen_ only grows,
  /// excluded_ is fixed, a full-S facility sits at the top), so the
  /// tables form a chain of strictly growing configurations: at most
  /// |S|+1 of them, exactly one under kFullS. Table t holds the nearest
  /// large facility whose config contains t.config; a demand D reads the
  /// table of the smallest configuration that covers it.
  struct LargeTable {
    CommoditySet config;
    std::vector<Nearest> nearest;
  };
  std::vector<LargeTable> near_large_;

  // ---- past-request state -------------------------------------------------
  struct PastSlot {
    CommodityId commodity = 0;
    double dual = 0.0;  // frozen a_je
  };
  struct PastRequest {
    PointId location = 0;
    /// s_j in increasing order with each commodity's frozen dual, in one
    /// allocation per entry.
    std::vector<PastSlot> slots;
    double dual_sum_large = 0.0;  // Σ a_je over non-excluded commodities
  };
  /// The commodities of an archived request, as nearest_large() reads them.
  static auto commodities_of(const PastRequest& pr) {
    return pr.slots | std::views::transform(&PastSlot::commodity);
  }
  /// The archive, keyed by the ledger's RequestId. depart() releases a
  /// rolled-back request's entry, so under kRollback the archive holds
  /// only the requests whose duals can still bid.
  IdSlotPool<PastRequest> archive_;
  /// The still-bidding index: archived requests with a positive frozen
  /// dual (the only ones whose clipped bid can be positive), in ascending
  /// id order. Facility openings and bid recomputation walk only these,
  /// so their cost follows the requests still bidding, not the stream's
  /// history. A departed request's entries stay as tombstones (ids no
  /// longer in the archive; walks skip them) until tombstones outnumber
  /// the live entries and the list is compacted, which keeps departures
  /// O(1) amortized and each list under twice its live size.
  struct Bidder {
    RequestId request = 0;
    std::uint32_t slot = 0;  // the commodity's slot in the request
  };
  struct BidderList {
    std::vector<Bidder> entries;
    std::size_t tombstones = 0;
  };
  /// by_commodity_[e]: slots with a_je > 0 (constraint (3) bidders).
  std::vector<BidderList> by_commodity_;
  /// Requests with Σ_e a_je > 0 over non-excluded e (constraint (4)).
  BidderList large_bidders_;

  // ---- incremental bid sums (kIncremental only) ---------------------------
  /// One arena for every bid row (see kernel/bid_plane.hpp). Row e:
  /// Σ_j (min{a_je, d(F(e),j)} − d(m,j))+ over past j, lazily activated on
  /// the first posting to commodity e. Row |S| (kLargeRow):
  /// Σ_j (min{Σ_e a_je, d(F̂,j)} − d(m,j))+, activated at reset.
  kernel::BidPlane bids_;
  std::size_t large_row_ = 0;  // == num_commodities_

  // ---- cached cost rows (the cost model is immutable per run) -------------
  /// Row e = f^{{e}}_m for every m, materialized on first use.
  kernel::BidPlane cost_rows_;
  /// f^σ_m row for the most recent large configuration σ (constant in
  /// kFullS mode, refreshed when the seen-union changes).
  std::vector<double> large_cost_row_;
  CommoditySet large_cost_config_;
  bool large_cost_valid_ = false;

  // ---- serve() scratch (reused across requests) ---------------------------
  std::vector<std::vector<double>> ref_bid_scratch_;  // reference-mode rows
  std::vector<double> large_bid_scratch_;
  /// Owned copy of the request's distance row on the fallback path (the
  /// table's per-thread row slot is single-slot; a row held for a whole
  /// event loop must not alias it).
  std::vector<double> dist_loc_scratch_;
  /// Per-slot round state; sized to the request's demand on each arrival
  /// so serve() allocates only when a request is larger than any before.
  struct NewFacility {
    FacilityId id;
    bool is_large;
  };
  struct Round {
    std::vector<CommodityId> commodities;
    std::vector<double> a;
    std::vector<char> served;
    std::vector<char> eligible;
    std::vector<double> dist1;
    std::vector<FacilityId> fac1;
    std::vector<const double*> f_small;
    std::vector<const double*> bids_small;
    std::vector<PointId> temp_point;   // constraint (3)
    std::vector<char> via_existing;    // constraint (1)
    std::vector<char> via_large;       // constraints (2)/(4)
    std::vector<double> traced_bid_mass;
    std::vector<double> traced_tightness;
    std::vector<NewFacility> committed;
  };
  Round round_;

  // ---- outputs -------------------------------------------------------------
  double total_dual_ = 0.0;
  std::vector<PdTraceEvent> trace_;

  // ---- helpers -------------------------------------------------------------
  bool prediction_enabled() const noexcept {
    return options_.prediction == PdOptions::Prediction::kOn;
  }
  /// Refreshes large_config_ from seen_ and excluded_.
  void refresh_large_config();
  /// The nearest facility offering e to point p (a table lookup).
  Nearest nearest_offering(CommodityId e, PointId p) const;
  /// The nearest large facility to p covering `commodities` (a range of
  /// CommodityId) minus the excluded ones (a table lookup).
  template <typename Commodities>
  Nearest nearest_large(PointId p, const Commodities& commodities) const;
  /// Row e of near_small_, activated (all +inf) on first use.
  Nearest* small_table(CommodityId e);
  /// Sweeps the facility at `point` into one nearest-facility row.
  void sweep_facility(Nearest* table, PointId point, FacilityId id) const;
  /// Appends a large facility to the table chain (new table when its
  /// config grows the chain). Returns false when the config does not
  /// contain the largest configuration so far.
  bool add_large_to_tables(const LargeRecord& facility);
  /// Records that one entry of `list` became a tombstone because request
  /// `departing` is leaving the archive, and compacts the list once
  /// tombstones outnumber the live entries.
  void withdraw_bidder(BidderList& list, RequestId departing);

  /// Fill `out[m]` with the constraint-(3) bid sum for commodity e at every
  /// point m (past requests only), according to the bid mode.
  void small_bid_row(CommodityId e, std::vector<double>& out) const;
  /// Same for the constraint-(4) large-facility bid sums.
  void large_bid_row(std::vector<double>& out) const;
  void recompute_small_bid_row(CommodityId e, std::vector<double>& out) const;
  void recompute_large_bid_row(std::vector<double>& out) const;

  /// Materializes (once) and returns the f^{{e}}_m cost row. The returned
  /// pointer is invalidated by a later ensure call for a new commodity
  /// (arena growth), so serve() ensures every row it needs before taking
  /// pointers.
  void ensure_singleton_cost_row(CommodityId e);
  /// Refreshes large_cost_row_ for `config` when it changed.
  const double* large_cost_row(const CommoditySet& config);

  /// Registers a newly permanent facility at `point` offering `config`
  /// with the facility indexes and the nearest-facility tables and
  /// (kIncremental) adjusts bid sums of still-bidding requests whose
  /// nearest-facility distances improved.
  void integrate_facility(PointId point, const CommoditySet& config,
                          FacilityId id, bool is_large);

  /// Adds the finished request `id` to the archive and the still-bidding
  /// lists and posts its contributions to the incremental bid arrays.
  void archive_request(RequestId id, const Request& request,
                       const std::vector<CommodityId>& commodities,
                       const std::vector<double>& duals);
};

}  // namespace omflp

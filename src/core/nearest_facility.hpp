// NearestFacilityRow — d(F, p) for every point p of the metric: the
// nearest of the facilities opened into the row so far, and its distance.
//
// Every online algorithm here decides by d(F(e), r), the distance from
// request r to the nearest open facility offering commodity e: PD-OMFLP's
// constraint (1) and its large-facility chain, RAND-OMFLP's connection
// step, the greedy pair's connect-or-open test and Meyerson's OFL. Each
// keeps one row per facility set it queries (one per commodity, one for
// the large facilities). Facilities never close, so each nearest distance
// only falls: add() sweeps one distance row d(point, ·) and keeps every
// entry exact, and a lookup is one array read.
//
// Ties: add() replaces an entry only on a strictly smaller distance and
// facilities are added in opening (id) order, so the lowest id wins among
// equidistant facilities — the rule a scan of the facility list in
// opening order follows.
//
// Memory: 16 bytes per point, allocated on the first add(), so a row no
// facility was opened into holds only its (empty) facility list.
#pragma once

#include <string_view>
#include <vector>

#include "instance/checkpoint_io.hpp"
#include "metric/distance_oracle.hpp"

namespace omflp {

class NearestFacilityRow {
 public:
  struct Nearest {
    double dist = kInfiniteDistance;
    FacilityId id = kInvalidFacility;
  };

  NearestFacilityRow() = default;
  /// A row over `dist`'s points; the table must outlive the row.
  explicit NearestFacilityRow(const DistanceOracle& dist) : dist_(&dist) {}

  /// Records an opened facility and sweeps d(f.point, ·) into the row,
  /// ticking facilities_probed by 1 and distance_lookups by |M|. Past the
  /// dense table (|M| > 4,096) DistanceOracle::row() is a per-thread
  /// single slot that the sweep repoints, so no caller may hold a row
  /// pointer across an add().
  void add(OpenRecord f);

  /// The nearest facility to p: {+inf, kInvalidFacility} while empty.
  Nearest nearest(PointId p) const {
    return near_.empty() ? Nearest{} : near_[p];
  }

  bool empty() const noexcept { return facilities_.empty(); }
  /// Every facility added, in opening order.
  const std::vector<OpenRecord>& facilities() const noexcept {
    return facilities_;
  }

  /// The facility list as one `key count point id ...` line.
  void serialize(CkptWriter& writer, std::string_view key) const;
  /// Replaces the row with the list serialize() wrote, refusing a point
  /// outside the metric, and replays the sweeps in opening order, so the
  /// restored row equals the live one entry for entry.
  void restore(CkptReader& reader, std::string_view key);

 private:
  const DistanceOracle* dist_ = nullptr;
  std::vector<OpenRecord> facilities_;
  std::vector<Nearest> near_;  // per point; empty until the first add()
};

/// The `offering-index` block: the row count, then each commodity's row
/// as an `offering` line. restore_offering_index() refuses a count other
/// than rows.size().
void serialize_offering_index(CkptWriter& writer,
                              const std::vector<NearestFacilityRow>& rows);
void restore_offering_index(CkptReader& reader,
                            std::vector<NearestFacilityRow>& rows);

}  // namespace omflp

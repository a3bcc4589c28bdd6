// NearestFacilityRow tests: every entry against a brute-force scan of
// the facility list (random openings with co-located facilities and
// equidistant points, on the dense table and on the fallback path), the
// empty row, the per-add counters, and the checkpoint round trip of a row
// and of the offering-index block.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/nearest_facility.hpp"
#include "metric/line_metric.hpp"
#include "perf/perf_counters.hpp"
#include "support/rng.hpp"

namespace omflp {
namespace {

using Nearest = NearestFacilityRow::Nearest;

/// The scan the row replaces: facilities in opening order, strict `<`.
Nearest scan(const DistanceOracle& dist,
             const std::vector<OpenRecord>& facilities, PointId p) {
  Nearest best;
  for (const OpenRecord& f : facilities) {
    const double d = dist(p, f.point);
    if (d < best.dist) best = Nearest{d, f.id};
  }
  return best;
}

bool same_entry(const Nearest& a, const Nearest& b) {
  return std::bit_cast<std::uint64_t>(a.dist) ==
             std::bit_cast<std::uint64_t>(b.dist) &&
         a.id == b.id;
}

/// Integer positions with repeats: co-located points, and many points
/// equidistant from two facilities.
std::shared_ptr<LineMetric> tie_heavy_line(std::size_t n, Rng& rng) {
  std::vector<double> positions;
  for (std::size_t i = 0; i < n; ++i)
    positions.push_back(static_cast<double>(rng.uniform_int(0, 12)));
  return std::make_shared<LineMetric>(std::move(positions));
}

/// The dense table (cache limit ≥ |M|) and the fallback path (cache
/// limit 4, below every |M| used here).
std::vector<std::unique_ptr<DistanceOracle>> both_paths(
    const std::shared_ptr<LineMetric>& metric) {
  std::vector<std::unique_ptr<DistanceOracle>> out;
  out.push_back(std::make_unique<DistanceOracle>(metric));
  out.push_back(std::make_unique<DistanceOracle>(metric, 4));
  return out;
}

std::string serialized(const NearestFacilityRow& row) {
  std::ostringstream os;
  CkptWriter writer(os);
  row.serialize(writer, "offering");
  writer.finish();
  return os.str();
}

TEST(NearestFacilityRow, EmptyRowIsInfiniteAndInvalidEverywhere) {
  const auto metric = LineMetric::uniform_grid(5, 1.0);
  for (const auto& dist : both_paths(metric)) {
    const NearestFacilityRow row(*dist);
    EXPECT_TRUE(row.empty());
    EXPECT_TRUE(row.facilities().empty());
    for (PointId p = 0; p < 5; ++p) {
      const Nearest n = row.nearest(p);
      EXPECT_EQ(n.dist, kInfiniteDistance);
      EXPECT_EQ(n.id, kInvalidFacility);
    }
  }
}

TEST(NearestFacilityRow, EveryEntryMatchesAScanOnBothPaths) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 30));
    const auto metric = tie_heavy_line(n, rng);
    for (const auto& dist : both_paths(metric)) {
      SCOPED_TRACE(dist->cached() ? "dense" : "fallback");
      NearestFacilityRow row(*dist);
      const int openings = static_cast<int>(rng.uniform_int(1, 12));
      for (int i = 0; i < openings; ++i) {
        // Repeated points open co-located facilities; ids grow like the
        // ledger's but skip values, as a row sees only its commodity's.
        const auto point = static_cast<PointId>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        const FacilityId id = static_cast<FacilityId>(3 * i + 1);
        row.add(OpenRecord{point, id});
        ASSERT_EQ(row.facilities().size(), static_cast<std::size_t>(i + 1));
        for (PointId p = 0; p < n; ++p)
          ASSERT_TRUE(same_entry(row.nearest(p),
                                 scan(*dist, row.facilities(), p)))
              << "trial " << trial << " opening " << i << " point " << p;
      }
    }
  }
}

TEST(NearestFacilityRow, EquidistantFacilitiesKeepTheFirstOpened) {
  // Points 0..4 at 0..4; facilities at 0 (id 7) then 4 (id 2): point 2
  // is equidistant and keeps id 7, which opened first.
  const auto metric = LineMetric::uniform_grid(5, 4.0);
  for (const auto& dist : both_paths(metric)) {
    NearestFacilityRow row(*dist);
    row.add(OpenRecord{0, 7});
    row.add(OpenRecord{4, 2});
    EXPECT_EQ(row.nearest(2).id, 7u);
    EXPECT_EQ(row.nearest(2).dist, 2.0);
    EXPECT_EQ(row.nearest(3).id, 2u);
    row.add(OpenRecord{4, 9});  // co-located with id 2: never nearer
    EXPECT_EQ(row.nearest(4).id, 2u);
  }
}

TEST(NearestFacilityRow, EachAddTicksOneProbeAndOneLookupPerPoint) {
  const auto metric = LineMetric::uniform_grid(6, 1.0);
  for (const auto& dist : both_paths(metric)) {
    NearestFacilityRow row(*dist);
    PerfCounters counters;
    {
      PerfScope scope(counters);
      row.add(OpenRecord{1, 0});
      row.add(OpenRecord{5, 1});
      (void)row.nearest(3);
    }
    EXPECT_EQ(counters.facilities_probed, 2u);
    EXPECT_EQ(counters.distance_lookups, 12u);
  }
}

TEST(NearestFacilityRow, SerializeRestoreSerializeIsByteIdentical) {
  Rng rng(5);
  const auto metric = tie_heavy_line(24, rng);
  for (const auto& dist : both_paths(metric)) {
    NearestFacilityRow row(*dist);
    for (FacilityId id = 0; id < 9; ++id)
      row.add(OpenRecord{static_cast<PointId>(rng.uniform_int(0, 23)), id});
    const std::string bytes = serialized(row);

    NearestFacilityRow restored(*dist);
    restored.add(OpenRecord{0, 99});  // replaced, not appended to
    std::istringstream is(bytes);
    CkptReader reader(is);
    restored.restore(reader, "offering");
    reader.finish();
    EXPECT_EQ(serialized(restored), bytes);
    ASSERT_EQ(restored.facilities().size(), row.facilities().size());
    for (PointId p = 0; p < 24; ++p)
      EXPECT_TRUE(same_entry(restored.nearest(p), row.nearest(p))) << p;
  }
}

TEST(NearestFacilityRow, RestoreRefusesAPointOutsideTheMetric) {
  const auto metric = LineMetric::uniform_grid(4, 1.0);
  std::ostringstream os;
  {
    CkptWriter writer(os);
    writer.line("offering").u(2).u(1).u(0).u(4).u(1);  // point 4 of |M| = 4
    writer.finish();
  }
  for (const auto& dist : both_paths(metric)) {
    std::istringstream is(os.str());
    CkptReader reader(is);
    NearestFacilityRow row(*dist);
    EXPECT_THROW(row.restore(reader, "offering"), std::invalid_argument);
  }
}

TEST(NearestFacilityRow, OfferingIndexRoundTripsAndChecksItsSize) {
  const auto metric = LineMetric::uniform_grid(8, 1.0);
  const DistanceOracle dist(metric);
  std::vector<NearestFacilityRow> rows(3, NearestFacilityRow(dist));
  rows[0].add(OpenRecord{2, 0});
  rows[2].add(OpenRecord{6, 1});
  rows[2].add(OpenRecord{1, 2});
  std::ostringstream os;
  {
    CkptWriter writer(os);
    serialize_offering_index(writer, rows);
    writer.finish();
  }
  {
    std::vector<NearestFacilityRow> restored(3, NearestFacilityRow(dist));
    std::istringstream is(os.str());
    CkptReader reader(is);
    restore_offering_index(reader, restored);
    reader.finish();
    for (std::size_t e = 0; e < rows.size(); ++e)
      EXPECT_EQ(serialized(restored[e]), serialized(rows[e])) << e;
  }
  std::vector<NearestFacilityRow> too_few(2, NearestFacilityRow(dist));
  std::istringstream is(os.str());
  CkptReader reader(is);
  EXPECT_THROW(restore_offering_index(reader, too_few), std::invalid_argument);
}

}  // namespace
}  // namespace omflp

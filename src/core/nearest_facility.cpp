#include "core/nearest_facility.hpp"

#include "perf/perf_counters.hpp"

namespace omflp {

void NearestFacilityRow::add(OpenRecord f) {
  const std::size_t n = dist_->num_points();
  if (near_.empty()) near_.resize(n);
  facilities_.push_back(f);
  OMFLP_PERF_ADD(facilities_probed, 1);
  OMFLP_PERF_ADD(distance_lookups, n);
  const double* dist_f = dist_->row(f.point);  // d(f.point, ·) = d(·, f.point)
  for (PointId p = 0; p < n; ++p)
    if (dist_f[p] < near_[p].dist) near_[p] = Nearest{dist_f[p], f.id};
}

void NearestFacilityRow::serialize(CkptWriter& writer,
                                   std::string_view key) const {
  serialize_open_records(writer, key, facilities_);
}

void NearestFacilityRow::restore(CkptReader& reader, std::string_view key) {
  const std::vector<OpenRecord> records =
      restore_open_records(reader, key, dist_->num_points());
  facilities_.clear();
  near_.clear();
  for (const OpenRecord& f : records) add(f);
}

void serialize_offering_index(CkptWriter& writer,
                              const std::vector<NearestFacilityRow>& rows) {
  writer.line("offering-index").u(rows.size());
  for (const NearestFacilityRow& row : rows) row.serialize(writer, "offering");
}

void restore_offering_index(CkptReader& reader,
                            std::vector<NearestFacilityRow>& rows) {
  reader.expect("offering-index");
  if (reader.u() != rows.size())
    reader.fail("offering index universe mismatch");
  for (NearestFacilityRow& row : rows) row.restore(reader, "offering");
}

}  // namespace omflp

#include "bound/certificate.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "support/parse.hpp"
#include "support/record_io.hpp"

namespace omflp {

namespace {

constexpr const char* kHeader = "OMFLP-CERT v1";

}  // namespace

void write_certificate(std::ostream& os, const DualCertificate& cert) {
  os << kHeader << '\n';
  os << "method " << cert.method << '\n';
  os << "requests " << cert.num_requests << '\n';
  os << "commodities " << cert.num_commodities << '\n';
  os << "points " << cert.num_points << '\n';
  os.precision(17);
  os << "objective " << cert.objective << '\n';
  for (const std::vector<double>& row : cert.duals) {
    os << "dual " << row.size();
    for (double a : row) os << ' ' << a;
    os << '\n';
  }
  os << "slack";
  for (double s : cert.facility_slack) os << ' ' << s;
  os << '\n';
}

std::string certificate_to_string(const DualCertificate& cert) {
  std::ostringstream os;
  write_certificate(os, cert);
  return os.str();
}

DualCertificate read_certificate(std::istream& is) {
  RecordReader in(is, "read_certificate");
  in.line("header");
  if (in.text() != kHeader)
    in.fail("bad header, expected 'OMFLP-CERT v1'");

  DualCertificate cert;
  in.line("method");
  in.keyword("method", "expected 'method <name>'");
  cert.method = in.word("method name");
  in.end("method line");

  in.line("requests");
  in.keyword("requests", "expected 'requests <n>'");
  cert.num_requests = in.u64("request count");
  in.end("requests line");

  in.line("commodities");
  in.keyword("commodities", "expected 'commodities <|S|>'");
  const std::uint64_t s = in.u64("commodity count");
  if (s == 0 || s > std::numeric_limits<CommodityId>::max())
    in.fail("commodity count out of range");
  cert.num_commodities = static_cast<CommodityId>(s);
  in.end("commodities line");

  in.line("points");
  in.keyword("points", "expected 'points <|M|>'");
  cert.num_points = in.u64("point count");
  if (cert.num_points == 0) in.fail("point count out of range");
  in.end("points line");

  in.line("objective");
  in.keyword("objective", "expected 'objective <finite value>'");
  cert.objective = in.real("objective");
  in.end("objective line");

  // Capped reserves: absurd declared counts (fuzzed certificates) must
  // fail at a missing line or value, never in the allocator.
  cert.duals.reserve(capped_reserve(cert.num_requests, std::size_t{1} << 20));
  for (std::size_t r = 0; r < cert.num_requests; ++r) {
    in.line("dual");
    in.keyword("dual", "expected 'dual <k> <values...>'");
    const std::uint64_t k = in.u64("dual count");
    if (k == 0 || k > cert.num_commodities) in.fail("bad dual count");
    std::vector<double> values;
    values.reserve(capped_reserve(k));
    for (std::uint64_t i = 0; i < k; ++i)
      values.push_back(in.real("dual value"));
    in.end("dual line");
    cert.duals.push_back(std::move(values));
  }

  in.line("slack");
  in.keyword("slack", "expected 'slack <values...>'");
  cert.facility_slack.reserve(
      capped_reserve(cert.num_points, std::size_t{1} << 20));
  for (std::size_t m = 0; m < cert.num_points; ++m)
    cert.facility_slack.push_back(in.real("slack value"));
  in.end("slack line");
  in.expect_eof("the slack line");
  return cert;
}

DualCertificate certificate_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_certificate(is);
}

}  // namespace omflp

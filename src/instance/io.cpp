#include "instance/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "instance/io_detail.hpp"
#include "support/parse.hpp"
#include "support/record_io.hpp"

namespace omflp {

namespace {

constexpr const char* kHeader = "OMFLP-INSTANCE v1";

}  // namespace

void write_instance(std::ostream& os, const Instance& instance) {
  iodetail::write_preamble(os, kHeader, instance.name(), instance.metric(),
                           instance.cost(), instance.capacities(),
                           "write_instance");
  os << "requests " << instance.num_requests() << '\n';
  for (const Request& r : instance.requests()) {
    iodetail::write_demand(os, r);
    os << '\n';
  }
  if (const auto& cert = instance.opt_certificate()) {
    os << "opt " << cert->upper_bound << ' ' << (cert->exact ? 1 : 0) << ' '
       << cert->note << '\n';
  }
}

std::string instance_to_string(const Instance& instance) {
  std::ostringstream os;
  write_instance(os, instance);
  return os.str();
}

Instance read_instance(std::istream& is) {
  RecordReader in(is, "read_instance");
  iodetail::Preamble preamble = iodetail::read_preamble(in, kHeader,
                                                        "requests");
  in.keyword("requests", "expected 'requests <n>'");
  const std::uint64_t n = in.u64("request count");
  in.end("requests line");
  const CommodityId s = preamble.cost->num_commodities();
  const std::size_t points = preamble.metric->num_points();
  std::vector<Request> requests;
  // Capped reserve: an absurd declared count (fuzzed/corrupt traces)
  // must fail at the end of input, not in the allocator.
  requests.reserve(capped_reserve(n, std::size_t{1} << 20));
  for (std::uint64_t i = 0; i < n; ++i) {
    in.line("request");
    requests.push_back(iodetail::read_demand(in, s, points, "request"));
    in.end("request line");
  }

  Instance instance(std::move(preamble.metric), std::move(preamble.cost),
                    std::move(requests), std::move(preamble.name));
  instance.set_capacities(std::move(preamble.capacities));

  // Optional trailing opt certificate; nothing may follow it.
  if (in.try_line()) {
    in.keyword("opt", "trailing content is not an 'opt' line");
    const double bound = in.real("opt bound");
    const std::uint64_t exact = in.u64("opt exact flag");
    if (exact > 1) in.fail("opt exact flag must be 0 or 1");
    instance.set_opt_certificate(
        OptCertificate{bound, exact == 1, std::string(in.rest())});
    in.expect_eof("the opt line");
  }
  return instance;
}

Instance instance_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_instance(is);
}

}  // namespace omflp

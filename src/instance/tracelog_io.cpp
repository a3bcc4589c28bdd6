#include "instance/tracelog_io.hpp"

#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "support/json.hpp"
#include "support/record_io.hpp"

namespace omflp {

namespace {

constexpr const char* kHeader =
    "{\"format\":\"OMFLP-TRACELOG\",\"version\":1}";

std::string end_line(std::uint64_t events) {
  return "{\"end\":true,\"events\":" + std::to_string(events) + "}";
}

template <class Contributor, class Fields>
void visit_contributor(Contributor& contributor, Fields& f) {
  f.begin_object();
  f.integer("request", contributor.request);
  f.number("amount", contributor.amount);
  f.end_object();
}

/// The event line layout, written once: FieldWriter visits a const
/// event and FieldReader a mutable one, so the writer and the reader
/// cannot drift apart. Every kind leads with seq, kind and request.
template <class Event, class Fields>
void visit_event(Event& event, std::uint64_t& seq, Fields& f) {
  f.begin_object();
  f.integer("seq", seq);
  f.kind(event.kind);
  f.integer("request", event.request);
  switch (event.kind) {
    case TraceEventKind::kFacilityOpen:
      f.integer("commodity", event.commodity);
      f.integer("facility", event.facility);
      f.integer("point", event.point);
      f.integer("config_size", event.config_size);
      f.integer("constraint", event.constraint, 4);
      f.number("cost", event.cost);
      f.number("bid_mass", event.bid_mass);
      f.number("tightness", event.tightness);
      f.contributors(event.contributors);
      f.number("residual", event.residual);
      break;
    case TraceEventKind::kRequestAssign:
    case TraceEventKind::kRequestSpill:
      f.integer("commodity", event.commodity);
      f.integer("facility", event.facility);
      f.integer("point", event.point);
      f.number("cost", event.cost);
      break;
    case TraceEventKind::kBidRollback:
      f.number("bid_mass", event.bid_mass);
      f.number("cost", event.cost);
      break;
    case TraceEventKind::kDepart:
    case TraceEventKind::kLeaseExpire:
      f.integer("stream_event", event.stream_event);
      break;
    case TraceEventKind::kDualRaise:
      f.integer("commodity", event.commodity);
      f.integer("config_size", event.config_size);
      f.number("cost", event.cost);
      break;
    case TraceEventKind::kVerifierFlag:
      f.text("note", event.note);
      break;
    case TraceEventKind::kRequestReject:
      f.integer("commodity", event.commodity);
      break;
  }
  f.end_object();
}

/// Appends the canonical encoding: integers in decimal, doubles as %.17g.
class FieldWriter {
 public:
  explicit FieldWriter(std::string& out) : out_(out) {}

  void begin_object() { out_ += '{'; }
  void end_object() { out_ += '}'; }
  template <class T>
  void integer(const char* name, T value, std::uint64_t /*max*/ = 0) {
    key(name);
    out_ += std::to_string(static_cast<std::uint64_t>(value));
  }
  void number(const char* name, double value) {
    if (!std::isfinite(value))
      throw std::invalid_argument(
          std::string("tracelog_event_to_json: non-finite ") + name);
    key(name);
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_.append(buf, static_cast<std::size_t>(n));
  }
  void kind(TraceEventKind kind) {
    key("kind");
    out_ += '"';  // kind names are identifiers: nothing to escape
    out_ += trace_event_kind_name(kind);
    out_ += '"';
  }
  void text(const char* name, const std::string& value) {
    key(name);
    out_ += json_quoted(value);
  }
  void contributors(const std::vector<TraceContributor>& list) {
    if (list.size() > kMaxTraceContributors)
      throw std::invalid_argument(
          "tracelog_event_to_json: contributor list exceeds the cap");
    key("contributors");
    out_ += '[';
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i) out_ += ',';
      visit_contributor(list[i], *this);
    }
    out_ += ']';
  }

 private:
  void key(const char* name) {
    out_ += out_.back() == '{' ? "\"" : ",\"";
    out_ += name;
    out_ += "\":";
  }

  std::string& out_;
};

/// Reads the fields back through the shared JSON cursor, with the range
/// checks the types need (ids, constraint, contributor count).
class FieldReader {
 public:
  explicit FieldReader(JsonCursor& in) : in_(in) {}

  void begin_object() { in_.expect("{"); }
  void end_object() { in_.expect("}"); }
  template <class T>
  void integer(const char* name, T& value,
               std::uint64_t max = std::numeric_limits<T>::max()) {
    in_.member(name);
    const std::uint64_t read = in_.u64();
    if (read > max) in_.fail(std::string(name) + " out of range");
    value = static_cast<T>(read);
  }
  void number(const char* name, double& value) {
    in_.member(name);
    value = in_.number();
  }
  void kind(TraceEventKind& kind) {
    in_.member("kind");
    const std::string name = in_.string();
    for (int k = 0; k <= 8; ++k) {
      kind = static_cast<TraceEventKind>(k);
      if (name == trace_event_kind_name(kind)) return;
    }
    in_.fail("unknown event kind '" + name + "'");
  }
  void text(const char* name, std::string& value) {
    in_.member(name);
    value = in_.string();
  }
  void contributors(std::vector<TraceContributor>& list) {
    in_.member("contributors");
    in_.expect("[");
    list.clear();
    if (in_.try_consume("]")) return;
    do {
      if (list.size() == kMaxTraceContributors)
        in_.fail("too many contributors");
      visit_contributor(list.emplace_back(), *this);
    } while (in_.try_consume(","));
    in_.expect("]");
  }

 private:
  JsonCursor& in_;
};

void append_event(std::string& out, const TraceEvent& event,
                  std::uint64_t seq) {
  FieldWriter writer(out);
  visit_event(event, seq, writer);
}

TraceEvent parse_event_line(std::string_view line, std::uint64_t expected_seq,
                            std::string& scratch) {
  JsonCursor in(line, "", json_throw<std::invalid_argument>);
  TraceEvent event;
  std::uint64_t seq = 0;
  FieldReader reader(in);
  visit_event(event, seq, reader);
  in.done();
  if (seq != expected_seq)
    throw std::invalid_argument("sequence gap: expected seq " +
                                std::to_string(expected_seq) + ", got " +
                                std::to_string(seq));
  // Canonical form: any other spelling of the same values (whitespace,
  // escapes, number forms) re-encodes to different bytes.
  scratch.clear();
  append_event(scratch, event, seq);
  if (scratch != line)
    throw std::invalid_argument("line is not in canonical form");
  return event;
}

}  // namespace

std::string tracelog_event_to_json(const TraceEvent& event,
                                   std::uint64_t seq) {
  std::string out;
  append_event(out, event, seq);
  return out;
}

// --------------------------------------------------------------- writer ---

TraceLogWriter::TraceLogWriter(std::ostream& os) : os_(os) {
  os_ << kHeader << '\n';
}

TraceLogWriter::~TraceLogWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an unfinished log is detectable by the
    // reader (missing end line) anyway.
  }
}

void TraceLogWriter::on_event(const TraceEvent& event) {
  if (finished_)
    throw std::logic_error("TraceLogWriter: on_event after finish");
  line_.clear();
  append_event(line_, event, seq_);
  line_ += '\n';
  os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++seq_;
}

void TraceLogWriter::finish() {
  if (finished_) return;
  finished_ = true;
  os_ << end_line(seq_) << '\n';
  os_.flush();
}

// --------------------------------------------------------------- reader ---

struct TraceLogReader::Impl {
  RecordReader in;
  TraceLogReadMode mode;
  std::uint64_t seq = 0;
  bool done = false;
  bool truncated = false;
  std::string scratch;  // the re-encoded line of the canonical-form check

  Impl(std::istream& is, TraceLogReadMode read_mode)
      : in(is, "read_tracelog"), mode(read_mode) {
    in.line("header");
    if (in.text() != kHeader)
      in.fail(std::string("bad header, expected ") + kHeader);
  }

  bool next_strict(TraceEvent& out) {
    if (!in.try_line()) {
      if (mode == TraceLogReadMode::kStrict)
        in.fail("missing event or end line");
      // Torn tail: the file ends without an end line; the prefix read so
      // far is the recovery result.
      truncated = true;
      done = true;
      return false;
    }
    const std::string_view line = in.text();
    if (line.starts_with("{\"end\":")) {
      if (line != end_line(seq))
        in.fail("bad end line, expected " + end_line(seq));
      in.expect_eof("the end line");
      done = true;
      return false;
    }
    try {
      out = parse_event_line(line, seq, scratch);
    } catch (const std::invalid_argument& e) {
      in.fail(e.what());  // adds the line number
    }
    ++seq;
    return true;
  }
};

TraceLogReader::TraceLogReader(std::istream& is, TraceLogReadMode mode)
    : impl_(std::make_unique<Impl>(is, mode)) {}

TraceLogReader::~TraceLogReader() = default;

std::uint64_t TraceLogReader::events_read() const noexcept {
  return impl_->seq;
}

bool TraceLogReader::truncated() const noexcept { return impl_->truncated; }

bool TraceLogReader::next(TraceEvent& out) {
  if (impl_->done) return false;
  if (impl_->mode == TraceLogReadMode::kStrict)
    return impl_->next_strict(out);
  try {
    return impl_->next_strict(out);
  } catch (const std::invalid_argument&) {
    // First damaged line (malformation, seq gap, bad end line): the
    // events already yielded form the longest valid prefix.
    impl_->truncated = true;
    impl_->done = true;
    return false;
  }
}

// --------------------------------------------------- convenience layer ---

std::vector<TraceEvent> read_tracelog(std::istream& is,
                                      TraceLogReadMode mode) {
  TraceLogReader reader(is, mode);
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.next(event)) events.push_back(std::move(event));
  return events;
}

std::vector<TraceEvent> tracelog_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_tracelog(is);
}

void write_tracelog(std::ostream& os,
                    const std::vector<TraceEvent>& events) {
  TraceLogWriter writer(os);
  for (const TraceEvent& event : events) writer.on_event(event);
  writer.finish();
}

std::string tracelog_to_string(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  write_tracelog(os, events);
  return os.str();
}

}  // namespace omflp

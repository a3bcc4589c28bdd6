// Unit tests for the support substrate: CommoditySet algebra, storage and
// allocations, InlineList's storage and the allocations of the ledger
// records built on it, the RNG and its distributions, streaming
// statistics, harmonic numbers, the table writer, the parallel_for runner
// and the id->slot pool.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <new>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cost/cost_models.hpp"
#include "instance/event_stream.hpp"
#include "metric/line_metric.hpp"
#include "solution/solution.hpp"
#include "support/atomic_file.hpp"
#include "support/commodity_set.hpp"
#include "support/harmonic.hpp"
#include "support/id_slot_pool.hpp"
#include "support/inline_list.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/parse.hpp"
#include "support/record_io.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

// Every global allocation of this binary is counted, so a test can assert
// how many blocks an operation allocates.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace omflp {
namespace {

// ---------------------------------------------------------------- sets ---

TEST(CommoditySet, BasicMembership) {
  CommoditySet s(10);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  s.add(3);
  s.add(7);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.count(), 2u);
  s.remove(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.count(), 1u);
}

TEST(CommoditySet, OutOfRangeThrows) {
  CommoditySet s(4);
  EXPECT_THROW(s.add(4), std::invalid_argument);
  EXPECT_THROW(s.contains(4), std::invalid_argument);
  EXPECT_THROW(s.remove(9), std::invalid_argument);
}

// Universes on both sides of one word and of the 128-commodity inline
// limit, plus one well into the heap.
constexpr CommodityId kUniverses[] = {0, 1, 63, 64, 65, 127, 128, 129, 4096};

/// The first, middle and last commodity of `universe` (empty for 0).
CommoditySet sample_set(CommodityId universe) {
  CommoditySet s(universe);
  if (universe > 0) {
    s.add(0);
    s.add(universe / 2);
    s.add(universe - 1);
  }
  return s;
}

/// No bit past the universe is set in the last word.
bool tail_is_clear(const CommoditySet& s) {
  const CommodityId tail = s.universe_size() & 63;
  return tail == 0 || (s.words().back() >> tail) == 0;
}

TEST(CommoditySet, FullSetAndTrimAcrossWordBoundary) {
  for (const CommodityId u : kUniverses) {
    SCOPED_TRACE(u);
    const CommoditySet full = CommoditySet::full_set(u);
    EXPECT_EQ(full.words().size(), (std::size_t{u} + 63) / 64);
    EXPECT_EQ(CommoditySet(u).words().size(), full.words().size());
    EXPECT_EQ(full.count(), u);
    EXPECT_TRUE(full.is_full());
    EXPECT_TRUE(tail_is_clear(full));
    CommoditySet rest = full;
    rest -= sample_set(u);
    EXPECT_TRUE(tail_is_clear(rest));
    EXPECT_EQ(rest.count(), u - sample_set(u).count());
    EXPECT_EQ(rest | sample_set(u), full);
    rest -= full;
    EXPECT_TRUE(rest.empty());
  }
}

TEST(CommoditySet, SetAlgebra) {
  const CommoditySet a(8, {0, 1, 2, 5});
  const CommoditySet b(8, {2, 3, 5, 7});
  EXPECT_EQ((a | b), CommoditySet(8, {0, 1, 2, 3, 5, 7}));
  EXPECT_EQ((a & b), CommoditySet(8, {2, 5}));
  EXPECT_EQ((a - b), CommoditySet(8, {0, 1}));
  EXPECT_TRUE((a & b).is_subset_of(a));
  EXPECT_TRUE((a & b).is_subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE((a - b).intersects(b));
}

TEST(CommoditySet, UniverseMismatchThrows) {
  CommoditySet a(8);
  const CommoditySet b(9);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW((void)a.is_subset_of(b), std::invalid_argument);
}

TEST(CommoditySet, IterationIsSortedAndComplete) {
  const CommoditySet s(130, {0, 63, 64, 65, 129});
  const std::vector<CommodityId> got = s.to_vector();
  EXPECT_EQ(got, (std::vector<CommodityId>{0, 63, 64, 65, 129}));
  EXPECT_EQ(s.first(), 0u);
}

TEST(CommoditySet, FirstOnEmptyThrows) {
  const CommoditySet s(4);
  EXPECT_THROW((void)s.first(), std::invalid_argument);
}

TEST(CommoditySet, HashDistinguishesAndAgrees) {
  const CommoditySet a(16, {1, 5});
  const CommoditySet b(16, {1, 5});
  const CommoditySet c(16, {1, 6});
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(CommoditySet, ToString) {
  EXPECT_EQ(CommoditySet(8, {0, 3, 7}).to_string(), "{0,3,7}/8");
}

// ------------------------------------------------------ set storage ---

/// Blocks allocated while `fn` runs.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Keeps the compiler from eliding a copy, and with it its allocation.
template <typename T>
void keep(T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

TEST(CommoditySetStorage, CopyAndMoveConstructionKeepTheValue) {
  for (const CommodityId u : kUniverses) {
    SCOPED_TRACE(u);
    const CommoditySet original = sample_set(u);
    CommoditySet copy(original);
    EXPECT_EQ(copy, original);
    copy.clear();  // the copy owns its words
    EXPECT_EQ(original, sample_set(u));
    CommoditySet source = original;
    const CommoditySet moved(std::move(source));
    EXPECT_EQ(moved, original);
    EXPECT_EQ(source, CommoditySet());
    EXPECT_EQ(source.hash(), CommoditySet().hash());
  }
}

TEST(CommoditySetStorage, AssignmentInEveryInlineHeapDirection) {
  for (const CommodityId from : kUniverses) {
    for (const CommodityId to : kUniverses) {
      SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
      const CommoditySet original = sample_set(from);

      CommoditySet copied = sample_set(to);
      copied = original;
      EXPECT_EQ(copied, original);
      EXPECT_EQ(copied.hash(), original.hash());
      copied.clear();
      EXPECT_EQ(original, sample_set(from));

      CommoditySet source = original;
      CommoditySet moved = sample_set(to);
      moved = std::move(source);
      EXPECT_EQ(moved, original);
      // A moved-from set is the empty set over the empty universe and
      // takes a new value of either storage.
      EXPECT_EQ(source, CommoditySet());
      EXPECT_EQ(source.words().size(), 0u);
      source = sample_set(to);
      EXPECT_EQ(source, sample_set(to));
      source = CommoditySet::full_set(from);
      EXPECT_EQ(source.count(), from);
    }
  }
}

TEST(CommoditySetStorage, SelfAssignmentKeepsTheValue) {
  for (const CommodityId u : kUniverses) {
    SCOPED_TRACE(u);
    CommoditySet s = sample_set(u);
    CommoditySet& alias = s;
    s = alias;
    EXPECT_EQ(s, sample_set(u));
    s = std::move(alias);
    EXPECT_EQ(s, sample_set(u));
  }
}

// Re-recorded when hash() began mixing each word through the SplitMix64
// finalizer. It maps a zero word to zero, so empty sets kept the values
// the vector-backed set had. Pinned so that a storage change cannot move
// a hash, and with it a hash-ordered container, unnoticed.
TEST(CommoditySetStorage, HashValuesArePinned) {
  struct Pinned {
    CommodityId universe;
    std::size_t empty, full, sample;
  };
  const Pinned pinned[] = {
      {0, 1469598103934665603ULL, 1469598103934665603ULL,
       1469598103934665603ULL},
      {1, 4953162257141659110ULL, 6910501637449376005ULL,
       6910501637449376005ULL},
      {63, 4953226028816095348ULL, 11039277735559006387ULL,
       13984062334225501501ULL},
      {64, 4953233725397492825ULL, 7703169667139244712ULL,
       9243050394972237039ULL},
      {65, 11186709480756650002ULL, 2903583101208045018ULL,
       13565389439717188756ULL},
      {127, 11242190837505202012ULL, 9449025871456649736ULL,
       3278488874971718137ULL},
      {128, 11004003633532970107ULL, 4974523148408177097ULL,
       5161822955418969028ULL},
      {129, 5466607216224829014ULL, 1423190912715838015ULL,
       10454727945232539071ULL},
      {4096, 12457874735031047811ULL, 9713539179354583107ULL,
       6373958127194862465ULL},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.universe);
    EXPECT_EQ(CommoditySet(p.universe).hash(), p.empty);
    EXPECT_EQ(CommoditySet::full_set(p.universe).hash(), p.full);
    EXPECT_EQ(sample_set(p.universe).hash(), p.sample);
  }
}

// Unmixed xor-then-multiply hashed a leading word pair (~0, ~0) like
// (1, 1): these two sets shared the hash 6089817004000156555.
TEST(CommoditySetStorage, FullSetAndItsSampleHashApart) {
  const CommoditySet full = CommoditySet::full_set(129);
  const CommoditySet sample(129, {0, 64, 128});
  EXPECT_NE(full.hash(), sample.hash());
  for (const CommodityId u : kUniverses) {
    if (u < 2) continue;  // there the full set is the sample
    SCOPED_TRACE(u);
    EXPECT_NE(CommoditySet::full_set(u).hash(), sample_set(u).hash());
  }
}

TEST(CommoditySetAllocations, SmallUniversesNeverAllocate) {
  for (const CommodityId u : {8u, 64u, 128u}) {
    SCOPED_TRACE(u);
    const Request request{3, sample_set(u)};
    const StreamEvent event = StreamEvent::arrival(request, 5);
    const CommoditySet a = sample_set(u);
    const CommoditySet b = CommoditySet::full_set(u);

    EXPECT_EQ(allocations_during([&] {
                Request copy = request;
                Request assigned;
                assigned = copy;
                Request moved = std::move(copy);
                assigned = std::move(moved);
                keep(assigned);
              }),
              0u)
        << "Request";
    EXPECT_EQ(allocations_during([&] {
                StreamEvent copy = event;
                StreamEvent assigned;
                assigned = copy;
                StreamEvent moved = std::move(copy);
                assigned = std::move(moved);
                keep(assigned);
              }),
              0u)
        << "StreamEvent";
    EXPECT_EQ(allocations_during([&] {
                CommoditySet both = a | b;
                CommoditySet common = a & b;
                CommoditySet rest = b - a;
                keep(both);
                keep(common);
                keep(rest);
              }),
              0u)
        << "set algebra";

    const PolynomialCostModel cost(u, 1.0);
    double opened = 0.0;
    EXPECT_EQ(allocations_during([&] {
                opened = cost.singleton_cost(0, u - 1) + cost.full_cost(0);
                keep(opened);
              }),
              0u)
        << "singleton_cost and full_cost";

    const EventStream stream(
        LineMetric::uniform_grid(4, 1.0),
        std::make_shared<PolynomialCostModel>(u, 1.0),
        std::vector<StreamEvent>(16, event));
    MaterializedEventSource source(stream);
    std::vector<StreamEvent> batch;
    batch.reserve(stream.events().size());
    EXPECT_EQ(allocations_during([&] {
                (void)source.next_batch(batch, stream.events().size());
              }),
              0u)
        << "next_batch";
    EXPECT_EQ(batch.size(), stream.events().size());
  }
}

TEST(CommoditySetAllocations, HeapUniverseCopiesAllocateOneBlock) {
  const CommodityId u = CommoditySet::kInlineUniverse + 1;
  const Request request{3, sample_set(u)};
  const StreamEvent event = StreamEvent::arrival(request, 5);
  EXPECT_EQ(allocations_during([&] {
              CommoditySet copy = request.commodities;
              keep(copy);
            }),
            1u);
  EXPECT_EQ(allocations_during([&] {
              Request copy = request;
              keep(copy);
            }),
            1u);
  EXPECT_EQ(allocations_during([&] {
              StreamEvent copy = event;
              keep(copy);
            }),
            1u);
  EXPECT_EQ(allocations_during([&] {
              CommoditySet assigned(8);
              assigned = request.commodities;
              keep(assigned);
            }),
            1u);
  EXPECT_EQ(allocations_during([&] {
              StreamEvent moved = StreamEvent(event);
              StreamEvent target;
              target = std::move(moved);
              keep(target);
            }),
            1u)
      << "only the copy allocates; moves take the block";
}

// -------------------------------------------------------- inline list ---

using List = InlineList<std::uint32_t, 4>;

static_assert(sizeof(List) == 24, "8-byte header, then four elements");
static_assert(sizeof(InlineList<std::uint64_t, 4>) == 40);
static_assert(sizeof(InlineList<std::uint32_t, 2>) == 16,
              "the inline elements share their bytes with the heap pointer");

/// 10, 11, ..., 10 + n - 1.
std::vector<std::uint32_t> sequence(std::size_t n) {
  std::vector<std::uint32_t> out(n);
  std::iota(out.begin(), out.end(), 10u);
  return out;
}

List list_of(const std::vector<std::uint32_t>& values) {
  List list;
  for (const std::uint32_t v : values) list.push_back(v);
  return list;
}

std::vector<std::uint32_t> contents(const List& list) {
  return {list.begin(), list.end()};
}

/// The storage states a list can be in: inline and empty, partly full or
/// full; on the heap; and on the heap holding only two elements.
struct ListState {
  const char* name;
  std::vector<std::uint32_t> values;
  bool heap;
};
const ListState kListStates[] = {
    {"inline 0", {}, false},         {"inline 3", sequence(3), false},
    {"inline 4", sequence(4), false}, {"heap 6", sequence(6), true},
    {"heap 2", {7, 8}, true},
};

List make_state(const ListState& state) {
  List list;
  if (state.heap) list.reserve(List::kInlineCapacity + 1);
  for (const std::uint32_t v : state.values) list.push_back(v);
  return list;
}

TEST(InlineList, SizesAcrossTheInlineBoundary) {
  for (std::size_t n = 0; n <= 6; ++n) {
    SCOPED_TRACE(n);
    const std::vector<std::uint32_t> expected = sequence(n);
    List list;
    EXPECT_EQ(allocations_during([&] {
                for (const std::uint32_t v : expected) list.push_back(v);
              }),
              n > 4 ? 1u : 0u);
    EXPECT_EQ(list.size(), n);
    EXPECT_EQ(list.empty(), n == 0);
    EXPECT_EQ(list.capacity(), n > 4 ? 8u : 4u);
    EXPECT_EQ(contents(list), expected);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(list[i], expected[i]);
      EXPECT_EQ(list.at(i), expected[i]);
    }
    EXPECT_THROW((void)list.at(n), std::out_of_range);
    if (n > 0) EXPECT_EQ(list.front(), expected.front());
  }
}

TEST(InlineList, CopyAndMoveBetweenEveryStorageState) {
  for (const ListState& from : kListStates) {
    // Construction.
    {
      SCOPED_TRACE(from.name);
      const List original = make_state(from);
      List copy(original);
      EXPECT_EQ(contents(copy), from.values);
      copy.clear();  // the copy owns its elements
      EXPECT_EQ(contents(original), from.values);
      EXPECT_EQ(allocations_during([&] {
                  List again(original);
                  keep(again);
                }),
                from.values.size() > 4 ? 1u : 0u);

      List source = make_state(from);
      std::optional<List> moved;
      EXPECT_EQ(allocations_during([&] { moved.emplace(std::move(source)); }),
                0u);
      EXPECT_EQ(contents(*moved), from.values);
      EXPECT_TRUE(source.empty());
      EXPECT_EQ(source.capacity(), List::kInlineCapacity);
    }
    // Assignment onto every state.
    for (const ListState& to : kListStates) {
      SCOPED_TRACE(std::string(from.name) + " -> " + to.name);
      const List original = make_state(from);

      List copied = make_state(to);
      const std::size_t room = copied.capacity();
      EXPECT_EQ(allocations_during([&] { copied = original; }),
                from.values.size() > room ? 1u : 0u);
      EXPECT_EQ(contents(copied), from.values);
      EXPECT_EQ(copied, original);
      copied.clear();
      EXPECT_EQ(contents(original), from.values);

      List source = make_state(from);
      List moved = make_state(to);
      EXPECT_EQ(allocations_during([&] { moved = std::move(source); }), 0u);
      EXPECT_EQ(contents(moved), from.values);
      // A moved-from list is empty and inline, and takes new elements.
      EXPECT_TRUE(source.empty());
      EXPECT_EQ(source.capacity(), List::kInlineCapacity);
      source.push_back(99);
      EXPECT_EQ(contents(source), std::vector<std::uint32_t>{99});
      source = make_state(to);
      EXPECT_EQ(contents(source), to.values);
      source = list_of(sequence(6));
      EXPECT_EQ(contents(source), sequence(6));
    }
  }
}

TEST(InlineList, SelfAssignmentKeepsTheElements) {
  for (const ListState& state : kListStates) {
    SCOPED_TRACE(state.name);
    List list = make_state(state);
    List& alias = list;
    list = alias;
    EXPECT_EQ(contents(list), state.values);
    list = std::move(alias);
    EXPECT_EQ(contents(list), state.values);
  }
}

TEST(InlineList, ClearKeepsTheHeapBlock) {
  List list = list_of(sequence(6));
  ASSERT_EQ(list.capacity(), 8u);
  list.clear();
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.capacity(), 8u);
  const std::vector<std::uint32_t> eight = sequence(8);
  EXPECT_EQ(allocations_during([&] {
              for (const std::uint32_t v : eight) list.push_back(v);
            }),
            0u);
  EXPECT_EQ(contents(list), sequence(8));
  EXPECT_EQ(allocations_during([&] { list.push_back(18); }), 1u);
  EXPECT_EQ(list.capacity(), 16u);
}

TEST(InlineList, ReserveGrowsOnlyPastTheCapacity) {
  List list = list_of(sequence(3));
  EXPECT_EQ(allocations_during([&] { list.reserve(4); }), 0u);
  EXPECT_EQ(list.capacity(), 4u);
  EXPECT_EQ(allocations_during([&] { list.reserve(5); }), 1u);
  EXPECT_EQ(list.capacity(), 5u);
  EXPECT_EQ(contents(list), sequence(3));
}

TEST(InlineList, PushBackOfItsOwnElementAcrossTheSpill) {
  List list = list_of(sequence(4));
  list.push_back(list[0]);
  EXPECT_EQ(contents(list),
            (std::vector<std::uint32_t>{10, 11, 12, 13, 10}));
}

TEST(InlineList, EqualityAndErase) {
  EXPECT_EQ(list_of({1, 2}), list_of({1, 2}));
  EXPECT_NE(list_of({1, 2}), list_of({2, 1}));
  EXPECT_NE(list_of({1, 2}), list_of({1, 2, 3}));
  EXPECT_EQ(List(), List());
  // Equality sees the elements, not the storage.
  List spilled = list_of(sequence(6));
  spilled.clear();
  spilled.push_back(1);
  spilled.push_back(2);
  EXPECT_EQ(spilled, list_of({1, 2}));

  for (const std::vector<std::uint32_t>& values :
       {std::vector<std::uint32_t>{3, 1, 3}, {3, 1, 3, 2, 1, 5}}) {
    List list = list_of(values);
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    std::vector<std::uint32_t> expected = values;
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(contents(list), expected);
  }
  List list = list_of(sequence(6));
  EXPECT_EQ(*list.erase(list.begin() + 1, list.begin() + 3), 13u);
  EXPECT_EQ(contents(list), (std::vector<std::uint32_t>{10, 13, 14, 15}));
}

// ------------------------------------------------- ledger allocations ---

// A ledger's records keep up to four served entries inline, so once its
// pool holds enough slots and pages, serving, retiring and releasing
// requests of up to four commodities allocates nothing at all. Above four,
// a slot whose served list never spilled takes one block and keeps it for
// its next record. The distinct facilities are derived from `served`, so
// serving at six facilities costs no more than serving at one.
TEST(LedgerAllocations, SteadyStateRecordsAllocateNothing) {
  constexpr CommodityId kUniverse = 8;
  SolutionLedger ledger(LineMetric::uniform_grid(8, 7.0),
                        std::make_shared<PolynomialCostModel>(kUniverse, 1.0));
  std::vector<FacilityId> singleton;
  FacilityId full = kInvalidFacility;
  std::uint64_t event = 0;
  // One request demanding {0, ..., size - 1}, each commodity at its own
  // singleton (`spread`) or all at the full facility.
  const auto serve = [&](CommodityId size, bool spread) {
    CommoditySet demand(kUniverse);
    for (CommodityId e = 0; e < size; ++e) demand.add(e);
    ledger.begin_request(Request{size % 8, demand});
    if (singleton.empty()) {
      for (CommodityId e = 0; e < kUniverse; ++e)
        singleton.push_back(ledger.open_facility(
            e, CommoditySet::singleton(kUniverse, e)));
      full = ledger.open_facility(0, CommoditySet::full_set(kUniverse));
    }
    demand.for_each(
        [&](CommodityId e) { ledger.assign(e, spread ? singleton[e] : full); });
    ledger.finish_request();
  };
  const auto retire_all = [&] {
    for (RequestId id = ledger.first_record_id(); id < ledger.num_requests();
         ++id)
      if (ledger.resident(id) && ledger.request_record(id).active())
        ledger.retire_request(id, event++);
    ledger.release_retired();
  };
  constexpr std::size_t kRecords = 64;
  const auto small_cycle = [&] {
    for (std::size_t i = 0; i < kRecords; ++i)
      serve(static_cast<CommodityId>(1 + i % 4), /*spread=*/true);
    retire_all();
  };

  small_cycle();  // grows the pool, the id map and the retire queue
  EXPECT_EQ(allocations_during(small_cycle), 0u) << "demand sizes 1-4";
  EXPECT_EQ(ledger.num_resident_records(), 0u);

  // Every slot's lists are still inline: six commodities take one block
  // for served, at one facility or at six.
  EXPECT_EQ(allocations_during([&] { serve(6, /*spread=*/false); }), 1u);
  EXPECT_EQ(ledger.request_record(ledger.num_requests() - 1).num_connected(),
            1u);
  EXPECT_EQ(allocations_during([&] { serve(6, /*spread=*/true); }), 1u);
  EXPECT_EQ(ledger.request_record(ledger.num_requests() - 1).num_connected(),
            6u);
  EXPECT_EQ(allocations_during([&] { serve(4, /*spread=*/true); }), 0u);
  retire_all();

  // A slot keeps its block: once both slots have spilled their served
  // lists, six-commodity records allocate nothing either.
  const auto wide_cycle = [&] {
    serve(6, /*spread=*/true);
    serve(6, /*spread=*/true);
    retire_all();
  };
  wide_cycle();
  EXPECT_EQ(allocations_during(wide_cycle), 0u) << "demand size 6";
  EXPECT_EQ(allocations_during(small_cycle), 0u) << "back to sizes 1-4";
}

// ---------------------------------------------------------------- rng ----

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42), c(43);
  bool all_equal = true;
  bool any_differs_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    all_equal = all_equal && (va == b.next_u64());
    any_differs_from_c = any_differs_from_c || (va != c.next_u64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differs_from_c);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIndexIsUnbiasedish) {
  Rng rng(7);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, UniformIndexZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto sample = rng.sample_without_replacement(50, 20);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (std::size_t v : sample) EXPECT_LT(v, 50u);
  }
}

TEST(Rng, SubstreamsDiffer) {
  const Rng base(99);
  Rng s0 = base.substream(0);
  Rng s1 = base.substream(1);
  bool differ = false;
  for (int i = 0; i < 10; ++i)
    differ = differ || (s0.next_u64() != s1.next_u64());
  EXPECT_TRUE(differ);
}

TEST(ZipfSampler, UniformWhenExponentZero) {
  Rng rng(3);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[zipf(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(ZipfSampler, SkewFavorsLowRanks) {
  Rng rng(3);
  ZipfSampler zipf(16, 1.2);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[8]);
  EXPECT_GT(counts[0], 3 * counts[15]);
}

// -------------------------------------------------------------- stats ----

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(Summary, QuantilesAndCI) {
  Summary s;
  for (int i = 1; i <= 101; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.median(), 51.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 101.0);
  EXPECT_GT(s.ci95_halfwidth(), 0.0);
  const auto [lo, hi] = s.bootstrap_ci95(500, 7);
  EXPECT_LT(lo, s.mean());
  EXPECT_GT(hi, s.mean());
}

TEST(Summary, QuantileValidation) {
  Summary s;
  EXPECT_THROW((void)s.quantile(0.5), std::invalid_argument);
  s.add(1.0);
  EXPECT_THROW((void)s.quantile(1.5), std::invalid_argument);
}

TEST(LinearFitTest, RecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

// ----------------------------------------------------------- harmonic ----

TEST(Harmonic, SmallValuesExact) {
  EXPECT_DOUBLE_EQ(harmonic(0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(harmonic(2), 1.5);
  EXPECT_NEAR(harmonic(4), 25.0 / 12.0, 1e-12);
}

TEST(Harmonic, AsymptoticMatchesExactSummation) {
  // Straddle the exact/asymptotic switchover at n = 1024.
  for (std::size_t n : {1024u, 1025u, 5000u}) {
    double exact = 0.0;
    for (std::size_t k = 1; k <= n; ++k) exact += 1.0 / static_cast<double>(k);
    EXPECT_NEAR(harmonic(n), exact, 1e-10) << "n=" << n;
  }
}

TEST(Harmonic, PdScalingFactor) {
  // γ = 1/(5·√S·H_n)
  EXPECT_NEAR(pd_scaling_factor(16, 2), 1.0 / (5.0 * 4.0 * 1.5), 1e-12);
}

// -------------------------------------------------------------- table ----

TEST(TableWriter, MarkdownShape) {
  TableWriter t({"a", "bb"});
  t.begin_row().add(1).add("x");
  t.begin_row().add(2.5).add("yy");
  const std::string md = t.to_markdown();
  // Columns are padded to the widest cell ("2.5" is 3 chars wide).
  EXPECT_NE(md.find("| a   | bb |"), std::string::npos) << md;
  EXPECT_NE(md.find("| 2.5 | yy |"), std::string::npos) << md;
  EXPECT_NE(md.find("|-----|----|"), std::string::npos) << md;
}

TEST(TableWriter, CsvEscaping) {
  TableWriter t({"name", "v"});
  t.begin_row().add("with,comma").add(1);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
}

TEST(TableWriter, RowDisciplineEnforced) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add(1), std::invalid_argument);  // no begin_row
  t.begin_row().add(1).add(2);
  EXPECT_THROW(t.add(3), std::invalid_argument);  // row full
}

// ----------------------------------------------------------- parallel ----

// --------------------------------------------------------- id slot pool ---

std::vector<std::size_t> pool_ids(const IdSlotPool<std::vector<int>>& pool) {
  std::vector<std::size_t> ids;
  pool.for_each([&](std::size_t id, const std::vector<int>&) {
    ids.push_back(id);
  });
  return ids;
}

TEST(IdSlotPool, ReleasedIdsLeaveAndTheFrontTrims) {
  IdSlotPool<std::vector<int>> pool;
  for (int i = 0; i < 6; ++i) pool.add() = {i};
  EXPECT_EQ(pool.next_id(), 6u);
  pool.release(3);
  pool.release(1);
  EXPECT_FALSE(pool.resident(3));
  EXPECT_EQ(pool.find(3), nullptr);
  EXPECT_EQ(pool.first_id(), 0u);  // id 0 still pins the front
  EXPECT_EQ(pool_ids(pool), (std::vector<std::size_t>{0, 2, 4, 5}));
  pool.release(0);
  EXPECT_EQ(pool.first_id(), 2u);  // trimmed past the released 0 and 1
  EXPECT_EQ(pool.size(), 3u);
  ASSERT_NE(pool.find(4), nullptr);
  EXPECT_EQ(*pool.find(4), std::vector<int>{4});
  EXPECT_THROW(pool.release(3), std::invalid_argument);
  EXPECT_THROW(pool.release(6), std::invalid_argument);
  for (const std::size_t id : {2u, 4u, 5u}) pool.release(id);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.first_id(), 6u);  // nothing resident: first == next
  EXPECT_EQ(pool.next_id(), 6u);
}

TEST(IdSlotPool, ReusedSlotsKeepTheirContentsAndIdsOnlyGrow) {
  IdSlotPool<std::vector<int>> pool;
  pool.add().assign(100, 7);
  pool.release(0);
  // The one released slot comes back, capacity and contents intact.
  std::vector<int>& reused = pool.add();
  EXPECT_EQ(reused.size(), 100u);
  EXPECT_GE(reused.capacity(), 100u);
  EXPECT_EQ(pool.first_id(), 1u);
  EXPECT_THROW(pool.add(0), std::invalid_argument);
  // Skipped ids count as released, before and after the resident one.
  pool.add(5) = {5};
  pool.skip_to(9);
  EXPECT_EQ(pool.next_id(), 9u);
  EXPECT_EQ(pool_ids(pool), (std::vector<std::size_t>{1, 5}));
  EXPECT_FALSE(pool.resident(3));
  EXPECT_FALSE(pool.resident(8));
  pool.release(1);
  EXPECT_EQ(pool.first_id(), 5u);
  pool.release(5);
  pool.skip_to(20);  // an empty pool restarts its map at the new id
  EXPECT_EQ(pool.first_id(), 20u);
  pool.add() = {20};
  EXPECT_EQ(pool_ids(pool), std::vector<std::size_t>{20});
  pool.clear();
  EXPECT_EQ(pool.next_id(), 0u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(IdSlotPool, EntriesNeverMoveAsThePoolGrows) {
  IdSlotPool<std::vector<int>> pool;
  std::vector<int>& first = pool.add();
  first = {42};
  const std::vector<int>* const address = &first;
  for (int i = 1; i <= 10000; ++i) pool.add() = {i};
  EXPECT_EQ(pool.find(0), address);
  EXPECT_EQ(first, std::vector<int>{42});
  EXPECT_EQ(pool.size(), 10001u);
}

// Ids 1,023 | 1,024 and 2,047 | 2,048 sit on either side of the page
// boundaries; freeing the middle page leaves a hole in the directory that
// lookups and for_each() step over.
TEST(IdSlotPool, PageBoundariesKeepTheirOrderWhenAMiddlePageIsFreed) {
  IdSlotPool<std::vector<int>> pool;
  const std::vector<std::size_t> ids = {1023, 1024, 2047, 2048, 3071};
  for (const std::size_t id : ids) pool.add(id) = {static_cast<int>(id)};
  EXPECT_EQ(pool.first_id(), 1023u);
  EXPECT_EQ(pool_ids(pool), ids);
  pool.release(1024);
  EXPECT_EQ(pool_ids(pool),
            (std::vector<std::size_t>{1023, 2047, 2048, 3071}));
  pool.release(2047);  // the page of ids 1,024-2,047 is now empty
  EXPECT_EQ(pool_ids(pool), (std::vector<std::size_t>{1023, 2048, 3071}));
  EXPECT_EQ(pool.find(1500), nullptr);
  ASSERT_NE(pool.find(2048), nullptr);
  EXPECT_EQ(*pool.find(2048), std::vector<int>{2048});
  ASSERT_NE(pool.find(3071), nullptr);
  EXPECT_EQ(*pool.find(3071), std::vector<int>{3071});
  pool.add(5000) = {5000};  // a fresh page past another hole
  pool.release(1023);
  EXPECT_EQ(pool.first_id(), 2048u);
  EXPECT_EQ(pool_ids(pool), (std::vector<std::size_t>{2048, 3071, 5000}));
  EXPECT_EQ(*pool.find(5000), std::vector<int>{5000});
}

// Random ascending adds (with gaps past whole pages), releases of random
// resident ids and skip_to() calls, checked step by step against a
// std::map holding the same entries.
TEST(IdSlotPool, MatchesAMapModelOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    IdSlotPool<std::vector<int>> pool;
    std::map<std::size_t, int> model;
    std::size_t next = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.uniform_index(10);
      if (op < 5) {
        // Mostly the next id, sometimes a gap of up to three pages.
        const std::size_t gap = rng.uniform_index(4) == 0
                                    ? rng.uniform_index(3 * 1024)
                                    : 0;
        const std::size_t id = next + gap;
        pool.add(id) = {step};
        model[id] = step;
        next = id + 1;
      } else if (op < 9) {
        if (model.empty()) continue;
        auto it = model.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.uniform_index(model.size())));
        pool.release(it->first);
        model.erase(it);
      } else {
        next += rng.uniform_index(2048);
        pool.skip_to(next);
      }
      ASSERT_EQ(pool.size(), model.size());
      ASSERT_EQ(pool.next_id(), next);
      ASSERT_EQ(pool.first_id(), model.empty() ? next : model.begin()->first);
      const std::size_t probe = rng.uniform_index(next + 1);
      const auto found = model.find(probe);
      if (found == model.end()) {
        ASSERT_EQ(pool.find(probe), nullptr) << probe;
      } else {
        ASSERT_NE(pool.find(probe), nullptr) << probe;
        ASSERT_EQ(*pool.find(probe), std::vector<int>{found->second});
      }
    }
    std::vector<std::pair<std::size_t, int>> walked;
    pool.for_each([&](std::size_t id, const std::vector<int>& entry) {
      walked.emplace_back(id, entry.at(0));
    });
    EXPECT_EQ(walked,
              (std::vector<std::pair<std::size_t, int>>(model.begin(),
                                                        model.end())));
  }
}

// One id that never leaves must not make later add/release cycles pay:
// the pages between it and the newest id are freed, and their storage is
// reused from the spare list.
TEST(IdSlotPool, PinnedOldIdLeavesSteadyCyclesAllocationFree) {
  IdSlotPool<std::vector<int>> pool;
  pool.add() = {0};
  const auto cycles = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::size_t id = pool.next_id();
      pool.add(id).assign(4, i);
      pool.release(id);
    }
  };
  // Warm-up past a page boundary: a second directory entry, a page for
  // the newest ids, a slot and its vector's block.
  cycles(2 * IdSlotPool<std::vector<int>>::kPageIds);
  EXPECT_EQ(allocations_during([&] { cycles(100000); }), 0u);
  EXPECT_EQ(pool.first_id(), 0u);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool_ids(pool), std::vector<std::size_t>{0});
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(
                   100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ParallelFor, InlineWhenSingleThread) {
  int sum = 0;  // no atomics needed: must run on the calling thread
  parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  parallel_for(0, [&](std::size_t) { FAIL(); }, 4);
}

// -------------------------------------------------------- strict parsing ---

TEST(Parse, U64StrictAcceptsPlainDecimals) {
  EXPECT_EQ(parse_u64_strict("0"), 0u);
  EXPECT_EQ(parse_u64_strict("42"), 42u);
  EXPECT_EQ(parse_u64_strict("+7"), 7u);
  // Exactly UINT64_MAX still fits.
  EXPECT_EQ(parse_u64_strict("18446744073709551615"),
            18446744073709551615ull);
}

TEST(Parse, U64StrictRejectsNegativeInput) {
  // Regression: std::strtoull silently wraps negative text, so
  // "--trials -5" used to become 2^64−5.
  EXPECT_FALSE(parse_u64_strict("-5").has_value());
  EXPECT_FALSE(parse_u64_strict("-0").has_value());
}

TEST(Parse, U64StrictRejectsOverflow) {
  // Regression: neither CLI parser checked errno == ERANGE.
  EXPECT_FALSE(parse_u64_strict("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64_strict("99999999999999999999999").has_value());
}

TEST(Parse, U64StrictRejectsTrailingGarbageAndWhitespace) {
  // Regression: the environment readers (e.g. OMFLP_THREADS)
  // accepted "123abc" as 123 and "8abc" as 8.
  EXPECT_FALSE(parse_u64_strict("123abc").has_value());
  EXPECT_FALSE(parse_u64_strict("8abc").has_value());
  EXPECT_FALSE(parse_u64_strict(" 8").has_value());
  EXPECT_FALSE(parse_u64_strict("8 ").has_value());
  EXPECT_FALSE(parse_u64_strict("").has_value());
  EXPECT_FALSE(parse_u64_strict("+").has_value());
  EXPECT_FALSE(parse_u64_strict("0x10").has_value());
}

TEST(Parse, DoubleStrictAcceptsUsualForms) {
  EXPECT_DOUBLE_EQ(*parse_double_strict("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double_strict("-1e3"), -1000.0);
  EXPECT_DOUBLE_EQ(*parse_double_strict("0"), 0.0);
}

TEST(Parse, DoubleStrictRejectsGarbageOverflowAndNonFinite) {
  EXPECT_FALSE(parse_double_strict("1.5x").has_value());
  EXPECT_FALSE(parse_double_strict("").has_value());
  EXPECT_FALSE(parse_double_strict(" 1").has_value());
  // Every whitespace form strtod would skip, not just ' ' and '\t'.
  EXPECT_FALSE(parse_double_strict("\n1.5").has_value());
  EXPECT_FALSE(parse_double_strict("\r0.4").has_value());
  EXPECT_FALSE(parse_double_strict("\t2").has_value());
  // Hex-float literals are strtod-parseable but not plain decimals.
  EXPECT_FALSE(parse_double_strict("0x10").has_value());
  EXPECT_FALSE(parse_double_strict("0X1p3").has_value());
  // Regression: strtod reports "1e999" as ERANGE + HUGE_VAL; the old CLI
  // parser accepted the resulting inf.
  EXPECT_FALSE(parse_double_strict("1e999").has_value());
  EXPECT_FALSE(parse_double_strict("nan").has_value());
  EXPECT_FALSE(parse_double_strict("inf").has_value());
}

TEST(Parse, DoubleStrictKeepsSubnormalsAndItsSignRules) {
  // strtod flags subnormal results with ERANGE; they are ordinary values
  // here, since every writer prints them (%.17g of denorm_min).
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(parse_double_strict("4.9406564584124654e-324"), kDenormMin);
  EXPECT_EQ(parse_double_strict("-4.9406564584124654e-324"), -kDenormMin);
  EXPECT_EQ(parse_double_strict("2.2250738585072009e-308"),
            std::nextafter(std::numeric_limits<double>::min(), 0.0));
  // Still out of range: below the smallest subnormal, above the largest.
  EXPECT_FALSE(parse_double_strict("1e-400").has_value());
  EXPECT_FALSE(parse_double_strict("-1e-400").has_value());
  EXPECT_FALSE(parse_double_strict("1e999").has_value());
  // One optional sign, then a digit or '.'.
  EXPECT_EQ(parse_double_strict("+2.5"), 2.5);
  EXPECT_EQ(parse_double_strict("+.5"), 0.5);
  EXPECT_EQ(parse_double_strict("-.5"), -0.5);
  EXPECT_EQ(parse_double_strict("5."), 5.0);
  EXPECT_EQ(parse_double_strict("1E+3"), 1000.0);
  for (const char* bad : {"+-1", "-+1", "++1", "--1", "+", "-", ".", "+ 1",
                          "-inf", "+inf", "-nan", "infinity", "-0x1p3",
                          "1e", "1.5 ", "1,5"})
    EXPECT_FALSE(parse_double_strict(bad).has_value()) << bad;
}

TEST(RecordReader, FramesLinesAndConsumesFieldsStrictly) {
  std::istringstream is(
      "# comment\n\n \t\r\nname  two  spaces \nopt L 7\nv 1.5 x\n");
  RecordReader in(is, "fixture");
  const auto message = [&](auto&& read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  in.line("name");
  in.keyword("name", "expected 'name ...'");
  EXPECT_EQ(in.rest(), " two  spaces ");  // one separator dropped
  in.line("opt");
  EXPECT_FALSE(in.accept("L"));  // not next: nothing consumed
  in.keyword("opt", "expected 'opt ...'");
  EXPECT_TRUE(in.accept("L"));
  EXPECT_EQ(in.u64("lease"), 7u);
  in.end("opt line");
  in.line("value");
  EXPECT_EQ(message([&] { (void)in.u64("count"); }),
            "fixture: bad count 'v' (line 6)");
  EXPECT_EQ(in.real("value"), 1.5);
  EXPECT_EQ(message([&] { in.end("value line"); }),
            "fixture: trailing garbage 'x' on value line (line 6)");
  EXPECT_EQ(message([&] { (void)in.real("value"); }),
            "fixture: missing value (line 6)");
  in.expect_eof("the value line");
  EXPECT_EQ(message([&] { in.line("more"); }),
            "fixture: unexpected end of input while reading more");
}

TEST(Parse, ArgWrappersThrowWithFlagName) {
  EXPECT_EQ(parse_u64_arg("12", "--seed"), 12u);
  EXPECT_THROW(parse_u64_arg("-5", "--trials"), std::invalid_argument);
  EXPECT_THROW(parse_u64_arg("18446744073709551616", "--trials"),
               std::invalid_argument);
  EXPECT_THROW(parse_double_arg("1e999", "--threshold"),
               std::invalid_argument);
  try {
    parse_u64_arg("junk", "--seeds");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--seeds"), std::string::npos);
  }
}

TEST(Parse, EnvU64ReadsStrictlyAndFallsBack) {
  ::setenv("OMFLP_TEST_PARSE_ENV", "77", 1);
  EXPECT_EQ(env_u64("OMFLP_TEST_PARSE_ENV"), 77u);
  ::setenv("OMFLP_TEST_PARSE_ENV", "77abc", 1);
  EXPECT_FALSE(env_u64("OMFLP_TEST_PARSE_ENV").has_value());
  ::setenv("OMFLP_TEST_PARSE_ENV", "-3", 1);
  EXPECT_FALSE(env_u64("OMFLP_TEST_PARSE_ENV").has_value());
  ::unsetenv("OMFLP_TEST_PARSE_ENV");
  EXPECT_FALSE(env_u64("OMFLP_TEST_PARSE_ENV").has_value());
}

// ------------------------------------------------- rng state round-trip ---

TEST(RngState, SplitMix64MidSequenceRoundTrip) {
  SplitMix64 original(0xdecafbadULL);
  for (int i = 0; i < 37; ++i) (void)original.next();
  SplitMix64 restored(0);  // deliberately wrong seed
  restored.set_state(original.state());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(restored.next(), original.next()) << "draw " << i;
  }
}

TEST(RngState, Xoshiro256MidSequenceRoundTrip) {
  Xoshiro256 original(12345);
  for (int i = 0; i < 53; ++i) (void)original();
  Xoshiro256 restored(0);
  restored.set_state(original.state());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(restored(), original()) << "draw " << i;
  }
}

TEST(RngState, RoundTripPreservesEveryDistributionBitwise) {
  Rng original(987654321);
  // Warm up across every distribution so the capture point is deep in a
  // mixed call sequence, not a fresh generator.
  for (int i = 0; i < 25; ++i) {
    (void)original.uniform();
    (void)original.uniform_int(-10, 10);
    (void)original.exponential(0.5);
    (void)original.normal();
    (void)ZipfSampler(100, 1.1)(original);
  }
  Rng restored(1);
  restored.set_state(original.state());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(restored.next_u64(), original.next_u64()) << "u64 draw " << i;
    EXPECT_EQ(restored.uniform(), original.uniform()) << "uniform draw " << i;
    EXPECT_EQ(restored.normal(), original.normal()) << "normal draw " << i;
  }
}

TEST(RngState, RoundTripCarriesTheCachedNormalHalf) {
  // Marsaglia polar generates pairs; after an odd number of normal()
  // calls one half sits in the cache. A restore that dropped it would
  // shift every subsequent normal draw by one.
  Rng original(42);
  (void)original.normal();  // consumes one half, caches the other
  const Rng::State state = original.state();
  EXPECT_TRUE(state.has_cached_normal);
  Rng restored(7);
  restored.set_state(state);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(restored.normal(), original.normal()) << "normal draw " << i;
  }
}

// ------------------------------------------------------ atomic file io ---

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on destruction.
struct AtomicFileScratch {
  fs::path dir;
  explicit AtomicFileScratch(const std::string& tag)
      : dir(fs::temp_directory_path() /
            ("omflp-atomic-" + tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~AtomicFileScratch() { fs::remove_all(dir); }
  std::string path(const std::string& name) const {
    return (dir / name).string();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AtomicFile, WriteFileAtomicCreatesAndReplaces) {
  AtomicFileScratch scratch("write");
  const std::string path = scratch.path("artifact.txt");
  write_file_atomic(path, "first version\n");
  EXPECT_EQ(slurp(path), "first version\n");
  write_file_atomic(path, "second version\n");
  EXPECT_EQ(slurp(path), "second version\n");
  EXPECT_FALSE(fs::exists(atomic_temp_path(path)));
}

TEST(AtomicFile, AbandonedWriterLeavesOldFileIntactAndNoTemp) {
  AtomicFileScratch scratch("abandon");
  const std::string path = scratch.path("artifact.txt");
  write_file_atomic(path, "precious original\n");
  {
    // Simulates a crash / exception mid-write: the writer is destroyed
    // with partial content staged but commit() never called.
    AtomicFileWriter writer(path);
    writer.stream() << "half-written garb";
    EXPECT_TRUE(fs::exists(atomic_temp_path(path)));
  }
  EXPECT_EQ(slurp(path), "precious original\n");
  EXPECT_FALSE(fs::exists(atomic_temp_path(path)));
}

TEST(AtomicFile, CommitPublishesFullContentExactlyOnce) {
  AtomicFileScratch scratch("commit");
  const std::string path = scratch.path("artifact.txt");
  write_file_atomic(path, "old\n");
  AtomicFileWriter writer(path);
  writer.stream() << "line 1\n";
  // Nothing published until commit: readers still see the old content.
  EXPECT_EQ(slurp(path), "old\n");
  writer.stream() << "line 2\n";
  writer.commit();
  EXPECT_TRUE(writer.committed());
  EXPECT_EQ(slurp(path), "line 1\nline 2\n");
  EXPECT_FALSE(fs::exists(atomic_temp_path(path)));
  writer.commit();  // idempotent
  EXPECT_EQ(slurp(path), "line 1\nline 2\n");
}

TEST(AtomicFile, WriterFailureThrowsAndLeavesDestinationUntouched) {
  AtomicFileScratch scratch("fail");
  const std::string missing =
      scratch.path("no-such-subdir") + "/artifact.txt";
  EXPECT_THROW(write_file_atomic(missing, "content"), std::runtime_error);
  EXPECT_FALSE(fs::exists(missing));
}

// ------------------------------------------------------------------ json ---

JsonCursor cursor(std::string_view text) {
  return JsonCursor(text, "test: ", json_throw<std::invalid_argument>);
}

TEST(Json, QuotedUsesShortEscapesAndLowercaseHex) {
  EXPECT_EQ(json_quoted("plain"), "\"plain\"");
  EXPECT_EQ(json_quoted("q\" b\\ n\n r\r t\t"),
            "\"q\\\" b\\\\ n\\n r\\r t\\t\"");
  EXPECT_EQ(json_quoted(std::string("\x01\x1f\x7f", 3)),
            "\"\\u0001\\u001f\x7f\"");
  EXPECT_EQ(json_quoted(std::string(1, '\0')), "\"\\u0000\"");
  EXPECT_EQ(json_quoted("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 verbatim
}

TEST(Json, StringsRoundTripAndOnlyTheEscaperSpellingIsAccepted) {
  for (const std::string text :
       {std::string("a\nb\"c\\d\te\r"), std::string("\x01\x1b", 2),
        std::string(), std::string("caf\xc3\xa9")}) {
    const std::string quoted = json_quoted(text);
    JsonCursor in = cursor(quoted);
    EXPECT_EQ(in.string(), text);
    in.done();
  }
  for (const char* bad :
       {"\"a\\u000ab\"", "\"\\u0041\"", "\"\\u001F\"", "\"\\/\"",
        "\"\\b\"", "\"raw\ttab\"", "\"unterminated", "\"dangling\\",
        "\"\\u00\"", "plain"}) {
    JsonCursor in = cursor(bad);
    EXPECT_THROW((void)in.string(), std::invalid_argument) << bad;
  }
}

TEST(Json, U64IsExactDigitsOnly) {
  EXPECT_EQ(cursor("0").u64(), 0u);
  EXPECT_EQ(cursor(" 18446744073709551615").u64(),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"18446744073709551616", "-1", "+1", "01", "", "x"})
    EXPECT_THROW((void)cursor(bad).u64(), std::invalid_argument) << bad;
  // Digits stop at the first other byte; the caller's next token fails.
  JsonCursor in = cursor("2.5");
  EXPECT_EQ(in.u64(), 2u);
  EXPECT_THROW(in.done(), std::invalid_argument);
}

TEST(Json, NumberIsFiniteOnly) {
  EXPECT_EQ(cursor("2.5").number(), 2.5);
  EXPECT_EQ(cursor("-1e-3").number(), -1e-3);
  for (const char* bad : {"1e999", "nan", "inf", "", "-", "e5"})
    EXPECT_THROW((void)cursor(bad).number(), std::invalid_argument) << bad;
}

TEST(Json, MembersNeedCommasBetweenButNotBefore) {
  JsonCursor in = cursor("{ \"a\" : 1 ,\n \"b\":2}");
  in.expect("{");
  in.member("a");
  EXPECT_EQ(in.u64(), 1u);
  in.member("b");
  EXPECT_EQ(in.u64(), 2u);
  in.expect("}");
  in.done();

  JsonCursor missing_comma = cursor("{\"a\":1 \"b\":2}");
  missing_comma.expect("{");
  missing_comma.member("a");
  (void)missing_comma.u64();
  EXPECT_THROW(missing_comma.member("b"), std::invalid_argument);

  JsonCursor wrong_key = cursor("{\"ab\":1}");
  wrong_key.expect("{");
  EXPECT_THROW(wrong_key.member("a"), std::invalid_argument);
}

TEST(Json, FailuresCarryPrefixOffsetAndTheCallersType) {
  JsonCursor in("{]", "BENCH json: ", json_throw<std::runtime_error>);
  in.expect("{");
  try {
    in.expect("}");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "BENCH json: expected '}' at offset 1");
  }
}

}  // namespace
}  // namespace omflp

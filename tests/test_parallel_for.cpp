/// The one-shot fork/join behind every `threads` knob (DESIGN.md F20,
/// F43): parallel_for must run every index exactly once, rethrow the first
/// exception once every index has run, and run inline when the team is a
/// single thread.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "lbmem/util/parallel_for.hpp"

namespace lbmem {
namespace {

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(4, kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SingleThreadRunsInline) {
  // A team of one starts no thread: the body observes the caller's
  // thread, and the indices run in order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  std::vector<std::size_t> order;
  parallel_for(1, seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
    order.push_back(i);
  });
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ParallelFor, EmptyRangeReturnsImmediately) {
  bool ran = false;
  parallel_for(4, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, ExceptionPropagatesAfterEveryIndexRan) {
  // The remaining indices still run (slots stay fully written), whether
  // the team is one thread or several.
  for (const int threads : {1, 4}) {
    std::atomic<int> completed{0};
    EXPECT_THROW(parallel_for(threads, 100,
                              [&](std::size_t i) {
                                if (i == 37) throw std::runtime_error("boom");
                                completed.fetch_add(1);
                              }),
                 std::runtime_error)
        << "threads=" << threads;
    EXPECT_EQ(completed.load(), 99) << "threads=" << threads;
  }
}

TEST(ParallelFor, ResolveContract) {
  // 0 (and negatives) mean "hardware concurrency", which is always >= 1;
  // positive values are taken literally.
  EXPECT_GE(hardware_threads(), 1);
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  EXPECT_EQ(resolve_threads(-3), hardware_threads());
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(13), 13);
}

TEST(ParallelFor, OversubscribedTeamStillCoversSmallRanges) {
  // More threads than work: the team shrinks to the range, and every
  // index still runs once.
  std::atomic<int> total{0};
  parallel_for(16, 3, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

}  // namespace
}  // namespace lbmem

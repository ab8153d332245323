#include "lbmem/util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace lbmem {

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int resolve_threads(int threads) {
  return threads <= 0 ? hardware_threads() : threads;
}

void parallel_for(int threads, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t team =
      std::min(static_cast<std::size_t>(resolve_threads(threads)), count);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> members;
    members.reserve(team - 1);
    for (std::size_t m = 1; m < team; ++m) members.emplace_back(drain);
    drain();  // the caller is a member of the team
  }  // joins the other members
  if (error) std::rethrow_exception(error);
}

}  // namespace lbmem

#include "lbmem/stream/coalescer.hpp"

#include <cstdint>
#include <string>
#include <unordered_map>

namespace lbmem {

std::vector<std::size_t> coalesce_events(const std::vector<Event>& pending) {
  std::vector<std::uint8_t> alive(pending.size(), 1);
  // Task name -> index of its newest queued WcetChange in the current run.
  std::unordered_map<std::string, std::size_t> latest;

  for (std::size_t i = 0; i < pending.size(); ++i) {
    const Event& event = pending[i];
    switch (event.kind()) {
      case EventKind::WcetChange: {
        const std::string& task = std::get<WcetChange>(event.payload).task;
        const auto [it, fresh] = latest.try_emplace(task, i);
        if (!fresh) {
          // Last-write-wins: the stale estimate never runs a repair.
          alive[it->second] = 0;
          it->second = i;
        }
        break;
      }
      case EventKind::TaskArrival:
        latest.erase(std::get<TaskArrival>(event.payload).spec.name);
        break;
      case EventKind::TaskRemoval:
        latest.erase(std::get<TaskRemoval>(event.payload).task);
        break;
      case EventKind::ProcessorFailure:
        // Barrier: no estimate supersedes one across a failure.
        latest.clear();
        break;
    }
  }

  std::vector<std::size_t> survivors;
  survivors.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (alive[i]) survivors.push_back(i);
  }
  return survivors;
}

}  // namespace lbmem

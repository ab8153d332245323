#pragma once
/// \file parallel_for.hpp
/// \brief One-shot fork/join behind the scenario sweep's `threads` knob
/// (DESIGN.md F20, F43): `parallel_for(threads, count, body)` runs body(i)
/// for every i in [0, count) and returns once every index has run.
///
/// The team is min(resolve_threads(threads), count) threads, the caller
/// included: the caller starts the other members as `std::jthread`s and
/// joins them before returning, so no thread outlives the call. Every
/// member claims indices from one atomic counter (dynamic load balancing:
/// a member stuck on an expensive index never strands cheap ones behind
/// it). A team of one starts no thread and runs the indices inline, in
/// order.
///
/// The function is an execution accelerator, never a semantics knob:
/// callers own determinism by construction. Each index writes its own
/// pre-sized slot and reads only shared-immutable state, so any schedule
/// of the indices produces the same result, and every reduction over the
/// slots either happens on the calling thread afterwards, in index order,
/// or is commutative.

#include <cstddef>
#include <functional>

namespace lbmem {

/// std::thread::hardware_concurrency(), clamped to >= 1 (the standard
/// allows 0 for "unknown").
int hardware_threads();

/// The knob contract shared by every `threads` option: 0 (and any negative
/// value) resolves to hardware_threads(), anything else is taken literally.
int resolve_threads(int threads);

/// Run body(i) for every i in [0, count) on a team of
/// min(resolve_threads(threads), count) threads. The first exception any
/// invocation throws is rethrown once every index has run (the remaining
/// indices still run, so every slot is written).
void parallel_for(int threads, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace lbmem

#pragma once
/// \file coalescer.hpp
/// \brief Deterministic event coalescing for the streaming service.
///
/// Under sustained traffic a task's WCET may be re-estimated several times
/// while the repair queue is busy; only the newest estimate needs a repair.
/// The coalescer keeps one rule (DESIGN.md F31):
///
///  * **Last-write-wins** — a WcetChange is dropped when a later
///    WcetChange to the same task follows it in the batch. The newest
///    estimate survives at its own position.
///  * **Failure barrier** — a ProcessorFailure is never dropped and never
///    crossed: estimates queued before it are not superseded by estimates
///    queued after it, so coalescing never reorders work around a failure.
///  * **Task-name boundary** — an arrival or removal of a task name ends
///    that name's run of estimates: an estimate queued before a removal is
///    not superseded by one queued after the name's re-arrival. Arrivals,
///    removals and failures themselves always survive.
///
/// The result is the survivors' original indices, ascending; the batch
/// itself is left untouched, so a survivor is exactly the event that was
/// queued. Applying the survivors one at a time is therefore the whole
/// contract (the service's property test pins its drain to it). Coalescing
/// does NOT promise the final schedule of the uncoalesced sequence: every
/// apply() runs a history-dependent repair, so skipping a stale estimate
/// can change which equally-valid schedule the system settles in. The
/// point is to not pay for that stale repair at all.

#include <cstddef>
#include <vector>

#include "lbmem/online/event.hpp"

namespace lbmem {

/// Original indices (ascending) of the events of \p pending that survive
/// last-write-wins. A pure function of the batch.
std::vector<std::size_t> coalesce_events(const std::vector<Event>& pending);

}  // namespace lbmem

#pragma once
/// \file stream.hpp
/// \brief Human-readable and JSON renderings of streaming-service reports.

#include <string>

#include "lbmem/stream/service.hpp"

namespace lbmem {

/// Traffic totals, coalescing drops, queueing/batching distributions
/// and final system state of one serve() run. Under \p include_timing the
/// wall-clock lines (throughput, queue-delay and batch-repair percentiles)
/// are added; with timing off the output is deterministic for a fixed
/// trace and configuration.
std::string summarize_stream(const StreamReport& report,
                             bool include_timing = true);

/// JSON object with `traffic`, `coalescing`, `latency` and `final`
/// sections. Set \p include_timing to false for byte-stable (golden/diff)
/// output — the wall-clock fields and the microsecond histograms are the
/// only nondeterministic content.
std::string stream_report_to_json(const StreamReport& report,
                                  bool include_timing = true);

/// One periodic stats line for the serve loop ("cycle 1200 t=76800
/// in=9800 ...") from the running report plus the arguments of
/// StreamService::ProgressFn; deterministic fields only unless
/// \p include_timing.
std::string progress_line(const StreamReport& so_far, int backlog,
                          bool degraded_armed, bool include_timing = true);

}  // namespace lbmem

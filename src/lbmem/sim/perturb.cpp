#include "lbmem/sim/perturb.hpp"

#include <algorithm>

namespace lbmem {

namespace {

/// SplitMix64 finalizer (public-domain reference constants) — the same
/// scrambler util/rng.hpp seeds xoshiro through, used here as a pure
/// counter-based hash so draws need no generator state.
std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t perturb_hash(std::uint64_t seed, std::uint64_t channel,
                           std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = splitmix(seed ^ (channel * 0x9e3779b97f4a7c15ULL));
  h = splitmix(h ^ a);
  h = splitmix(h ^ b);
  h = splitmix(h ^ c);
  return h;
}

double perturb_unit(std::uint64_t seed, std::uint64_t channel, std::uint64_t a,
                    std::uint64_t b, std::uint64_t c) {
  // Top 53 bits -> [0, 1), the standard exact double mapping.
  return static_cast<double>(perturb_hash(seed, channel, a, b, c) >> 11) *
         0x1.0p-53;
}

bool burst_storm(std::uint64_t seed, std::uint64_t channel,
                 std::uint64_t window, const GilbertElliott& chain) {
  if (!(chain.p > 0.0)) return false;
  // The chain state is a prefix product of per-window transition draws,
  // each a pure function of (seed, channel, w): re-deriving it from
  // window 0 keeps the model stateless — any caller, for any window split,
  // computes the identical state — at O(window) cost, which is trivial at
  // hyper-period granularity.
  bool storm = false;
  for (std::uint64_t w = 0; w <= window; ++w) {
    const double u = perturb_unit(seed, kPerturbBurst, channel, w);
    storm = storm ? !(u < chain.q) : (u < chain.p);
  }
  return storm;
}

std::vector<ProcessorFault> PerturbSpec::all_failures() const {
  std::vector<ProcessorFault> all = failures;
  std::sort(all.begin(), all.end(),
            [](const ProcessorFault& a, const ProcessorFault& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.proc < b.proc;
            });
  // A processor only dies once: keep its earliest fail time (the sort
  // already put it first among duplicates).
  std::vector<ProcessorFault> deduped;
  deduped.reserve(all.size());
  for (const ProcessorFault& f : all) {
    const bool seen =
        std::any_of(deduped.begin(), deduped.end(),
                    [&](const ProcessorFault& d) { return d.proc == f.proc; });
    if (!seen) deduped.push_back(f);
  }
  return deduped;
}

PerturbSpec PerturbSpec::replication(int rep) const {
  PerturbSpec derived = *this;
  derived.seed = perturb_hash(seed, kPerturbReplication,
                              static_cast<std::uint64_t>(rep));
  return derived;
}

}  // namespace lbmem

#pragma once
// Test-side reference for size_for_degradation's fail-fast bisection.

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "sizing/backend.hpp"
#include "sizing/eval_types.hpp"
#include "sizing/session.hpp"

namespace mtcmos::sizing {

// The bisection size_for_degradation must reproduce: the same sqrt(lo*hi)
// probe sequence, with every vector of every probe scored serially by
// degradation_pct and reduced to its first maximum.  Assumes the target
// is met at wl_max.
struct ExhaustiveBisection {
  SizingResult result;
  std::size_t probes = 0;
  std::size_t passes = 0;  ///< probes whose worst case met the target
};

inline ExhaustiveBisection exhaustive_bisection(const EvalBackend& backend,
                                                const std::vector<VectorPair>& vectors,
                                                double target_pct, const SizingBounds& bounds) {
  ExhaustiveBisection ref;
  const auto worst_at = [&](double wl) {
    double worst = -1.0;
    std::size_t worst_idx = 0;
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      const double d = backend.degradation_pct(vectors[i], wl);
      if (d > worst) {
        worst = d;
        worst_idx = i;
      }
    }
    ++ref.probes;
    if (worst >= 0.0 && worst <= target_pct) ++ref.passes;
    return std::pair<double, std::size_t>{worst, worst_idx};
  };
  const auto [deg_max, idx_max] = worst_at(bounds.wl_max);
  const auto [deg_min, idx_min] = worst_at(bounds.wl_min);
  if (deg_min >= 0.0 && deg_min <= target_pct) {
    ref.result = {bounds.wl_min, deg_min, vectors[idx_min]};
    return ref;
  }
  double lo = bounds.wl_min, hi = bounds.wl_max;
  double hi_deg = deg_max;
  std::size_t hi_idx = idx_max;
  while (hi - lo > bounds.wl_tol) {
    const double mid = std::sqrt(lo * hi);
    const auto [deg, idx] = worst_at(mid);
    if (deg >= 0.0 && deg <= target_pct) {
      hi = mid;
      hi_deg = deg;
      hi_idx = idx;
    } else {
      lo = mid;
    }
  }
  ref.result = {hi, hi_deg, vectors[hi_idx]};
  return ref;
}

}  // namespace mtcmos::sizing

#include "photonics/device_lut.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace trident::phot {

MrrWeightLut build_mrr_weight_lut(const MrrDesign& design,
                                  units::Length resonance,
                                  const GstCellParams& gst) {
  TRIDENT_REQUIRE(gst.levels >= 2, "MRR weight LUT needs at least two levels");
  const Mrr ring(design, resonance);
  MrrWeightLut lut;
  lut.raw.resize(static_cast<std::size_t>(gst.levels));
  // Same probe sweep as WeightBank::raw_weight_for_level: on-resonance
  // (drop − through) of a ring whose intracavity loss is the probed level's
  // amplitude transmittance.
  GstCell probe(gst);
  for (int l = 0; l < gst.levels; ++l) {
    probe.program(l);
    const MrrResponse r =
        ring.response(ring.resonance(), probe.amplitude_transmittance());
    lut.raw[static_cast<std::size_t>(l)] = r.drop - r.through;
  }
  const auto [lo, hi] = std::minmax_element(lut.raw.begin(), lut.raw.end());
  lut.raw_min = *lo;
  lut.raw_max = *hi;
  TRIDENT_ASSERT(lut.raw_max > lut.raw_min,
                 "GST sweep produced a degenerate weight range");
  lut.scale = (lut.raw_max - lut.raw_min) / 2.0;
  const double mid = (lut.raw_min + lut.raw_max) / 2.0;
  lut.weight.resize(lut.raw.size());
  for (std::size_t l = 0; l < lut.raw.size(); ++l) {
    lut.weight[l] = (lut.raw[l] - mid) / lut.scale;
  }
  return lut;
}

int MrrWeightLut::nearest_level(double target) const {
  const double clamped = std::clamp(target, -1.0, 1.0);
  const double desired_raw =
      (raw_min + raw_max) / 2.0 + clamped * scale;
  int best = 0;
  double best_err = std::abs(raw[0] - desired_raw);
  for (int l = 1; l < levels(); ++l) {
    const double err = std::abs(raw[static_cast<std::size_t>(l)] - desired_raw);
    if (err < best_err) {
      best_err = err;
      best = l;
    }
  }
  return best;
}

}  // namespace trident::phot

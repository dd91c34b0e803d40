// Compiled device-model lookup table of the MRR weight read-out.
//
// The device physics only ever sees 255 discrete GST levels, so the
// MRR/balanced-photodetector read-out of a programmed ring can be evaluated
// ONCE per level and served from a table afterwards.  The builder walks the
// same device models the functional simulation uses (GstCell,
// Mrr::response), so every entry is bit-identical to what the per-ring
// simulation would have computed; the tests pin the table against
// WeightBank's self-calibration sweep.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "photonics/gst.hpp"
#include "photonics/mrr.hpp"

namespace trident::phot {

/// GST level → realised weight of one add-drop ring read on resonance by
/// the balanced photodetector (drop − through), plus the normalisation
/// that maps the achievable raw range onto [-1, 1].  This is WeightBank's
/// construction-time calibration sweep as a standalone, bank-free table.
struct MrrWeightLut {
  std::vector<double> raw;     ///< level → drop − through at resonance
  std::vector<double> weight;  ///< level → normalised weight in [-1, 1]
  double raw_min = 0.0;
  double raw_max = 0.0;
  double scale = 1.0;  ///< (raw_max − raw_min) / 2: WeightBank::weight_scale

  [[nodiscard]] int levels() const { return static_cast<int>(raw.size()); }

  /// Calibrated level whose realised weight is nearest `target` ∈ [-1, 1]
  /// (the nearest-level search hardware programming performs).
  [[nodiscard]] int nearest_level(double target) const;
};

[[nodiscard]] MrrWeightLut build_mrr_weight_lut(const MrrDesign& design,
                                                units::Length resonance,
                                                const GstCellParams& gst = {});

}  // namespace trident::phot

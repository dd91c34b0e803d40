// Compiled MRR weight LUT: bit-identity with WeightBank's per-device
// calibration sweep and its nearest-level programming.
#include "photonics/device_lut.hpp"

#include <gtest/gtest.h>

#include "core/weight_bank.hpp"

namespace phot = trident::phot;
namespace core = trident::core;

TEST(MrrWeightLut, MatchesWeightBankCalibration) {
  core::WeightBankConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  core::WeightBank bank(cfg);
  const phot::MrrWeightLut lut =
      phot::build_mrr_weight_lut(cfg.mrr, cfg.plan.channel(0), cfg.gst);
  ASSERT_EQ(lut.levels(), cfg.gst.levels);
  EXPECT_EQ(lut.scale, bank.weight_scale());
  for (int l = 0; l < cfg.gst.levels; ++l) {
    EXPECT_EQ(lut.weight[static_cast<std::size_t>(l)], bank.weight_at_level(l))
        << "level " << l;
  }
}

TEST(MrrWeightLut, NearestLevelMatchesBankProgramming) {
  core::WeightBankConfig cfg;
  cfg.rows = 1;
  cfg.cols = 1;
  core::WeightBank bank(cfg);
  const phot::MrrWeightLut lut =
      phot::build_mrr_weight_lut(cfg.mrr, cfg.plan.channel(0), cfg.gst);
  for (double target : {-1.0, -0.73, -0.2, 0.0, 0.11, 0.5, 0.999, 1.0, 1.7}) {
    const double realized = bank.program_cell(0, 0, target);
    const int level = lut.nearest_level(target);
    EXPECT_EQ(lut.weight[static_cast<std::size_t>(level)], realized)
        << "target " << target;
  }
}

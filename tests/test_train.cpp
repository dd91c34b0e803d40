// Training-loop tests with the float reference backend: backprop through
// the paper's three linear primitives must actually learn.
#include "nn/train.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "core/photonic_backend.hpp"

namespace trident::nn {
namespace {

TEST(Train, LearnsLinearlySeparableBlobs) {
  Rng rng(1);
  Dataset data = gaussian_blobs(200, 3, 4, 4.0, 0.4, rng);
  Mlp net({4, 16, 3}, Activation::kReLU, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 15;
  cfg.learning_rate = 0.05;
  const TrainResult r = fit(net, data, cfg, backend);
  EXPECT_GT(r.final_accuracy(), 0.95);
  EXPECT_LT(r.final_loss(), r.epoch_loss.front());
}

TEST(Train, LearnsNonLinearTwoMoons) {
  // Moons are not linearly separable: success requires the hidden
  // non-linearity to be functioning.
  Rng rng(2);
  Dataset data = two_moons(400, 0.08, rng);
  data.augment_bias();  // no bias units in the PE weight bank: bias trick
  Mlp net({3, 24, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 120;
  cfg.learning_rate = 0.1;
  const TrainResult r = fit(net, data, cfg, backend);
  EXPECT_GT(r.final_accuracy(), 0.93);
}

TEST(Train, GstActivationAlsoLearnsMoons) {
  // The paper's claim in miniature: the GST photonic non-linearity (slope
  // 0.34 above threshold) supports training just like ReLU.
  Rng rng(3);
  Dataset data = two_moons(400, 0.08, rng);
  data.augment_bias();
  Mlp net({3, 24, 2}, Activation::kGstPhotonic, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 160;
  cfg.learning_rate = 0.3;  // compensates the 0.34 slope scaling
  const TrainResult r = fit(net, data, cfg, backend);
  EXPECT_GT(r.final_accuracy(), 0.90);
}

TEST(Train, LossCurveMostlyMonotonic) {
  Rng rng(4);
  Dataset data = gaussian_blobs(150, 2, 3, 3.0, 0.3, rng);
  Mlp net({3, 8, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 10;
  const TrainResult r = fit(net, data, cfg, backend);
  ASSERT_EQ(r.epoch_loss.size(), 10u);
  EXPECT_LT(r.epoch_loss.back(), r.epoch_loss.front() * 0.8);
}

TEST(Train, EvaluateMatchesTrainingAccuracyOrder) {
  Rng rng(5);
  Dataset data = gaussian_blobs(200, 2, 3, 4.0, 0.3, rng);
  const auto [train_set, test_set] = data.split(0.25);
  Mlp net({3, 12, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 20;
  (void)fit(net, train_set, cfg, backend);
  EXPECT_GT(evaluate(net, test_set, backend), 0.9);
}

TEST(Train, UntrainedNetworkNearChance) {
  Rng rng(6);
  const Dataset data = gaussian_blobs(400, 4, 6, 4.0, 0.3, rng);
  Mlp net({6, 8, 4}, Activation::kReLU, rng);
  FloatBackend backend;
  EXPECT_LT(evaluate(net, data, backend), 0.6);  // 4 classes → chance 0.25
}

TEST(Train, ValidatesConfiguration) {
  Rng rng(7);
  Dataset data = gaussian_blobs(20, 2, 2, 2.0, 0.3, rng);
  Mlp net({2, 4, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW((void)fit(net, data, cfg, backend), Error);
  cfg = {};
  cfg.learning_rate = 0.0;
  EXPECT_THROW((void)fit(net, data, cfg, backend), Error);
}

TEST(Train, RejectsShapeMismatches) {
  Rng rng(8);
  Dataset data = gaussian_blobs(20, 2, 3, 2.0, 0.3, rng);
  FloatBackend backend;
  Mlp wrong_in({5, 4, 2}, Activation::kReLU, rng);
  EXPECT_THROW((void)fit(wrong_in, data, {}, backend), Error);
  Mlp wrong_out({3, 4, 5}, Activation::kReLU, rng);
  EXPECT_THROW((void)fit(wrong_out, data, {}, backend), Error);
}

TEST(Train, BatchSizeOneIsBitIdenticalToDefault) {
  // The batched training path at batch_size 1 must reproduce the historical
  // per-sample loop exactly (same losses and accuracies, not just close).
  Rng rng_a(10), rng_b(10);
  Dataset data_a = two_moons(120, 0.1, rng_a);
  Dataset data_b = two_moons(120, 0.1, rng_b);
  data_a.augment_bias();
  data_b.augment_bias();
  Mlp net_a({3, 8, 2}, Activation::kGstPhotonic, rng_a);
  Mlp net_b({3, 8, 2}, Activation::kGstPhotonic, rng_b);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 6;
  const TrainResult ra = fit(net_a, data_a, cfg, backend);
  TrainConfig cfg1 = cfg;
  cfg1.batch_size = 1;
  const TrainResult rb = fit(net_b, data_b, cfg1, backend);
  EXPECT_EQ(ra.epoch_loss, rb.epoch_loss);
  EXPECT_EQ(ra.epoch_accuracy, rb.epoch_accuracy);
}

/// A photonic backend whose in-situ update is the scalar loop the update
/// kernel replaced: libm lround per cell.  Forward and gradient passes go
/// to the wrapped PhotonicBackend unchanged; the update keeps its own books
/// and, like PhotonicBackend, evicts the resident matrix after a write.
class ScalarRank1Photonic final : public MatvecBackend {
 public:
  core::PhotonicBackend inner;
  core::PhotonicLedger updates;

  [[nodiscard]] Vector matvec(const Matrix& w, const Vector& x) override {
    return inner.matvec(w, x);
  }
  [[nodiscard]] Vector matvec_transposed(const Matrix& w,
                                         const Vector& x) override {
    return inner.matvec_transposed(w, x);
  }
  [[nodiscard]] Matrix matmul(const Matrix& w, const Matrix& x) override {
    return inner.matmul(w, x);
  }
  [[nodiscard]] Matrix matmul_transposed(const Matrix& w,
                                         const Matrix& x) override {
    return inner.matmul_transposed(w, x);
  }
  void rank1_update(Matrix& w, const Vector& dh, const Vector& y_prev,
                    double lr) override {
    const double step = SymmetricQuantizer(8, 1.0).step();
    std::uint64_t changed = 0;
    for (std::size_t r = 0; r < w.rows(); ++r) {
      for (std::size_t c = 0; c < w.cols(); ++c) {
        const double target = w.at(r, c) - lr * dh[r] * y_prev[c];
        const long level = std::lround(std::clamp(target, -1.0, 1.0) / step);
        const double q = static_cast<double>(static_cast<int>(level)) * step;
        if (q != w.at(r, c)) {
          w.at(r, c) = q;
          ++changed;
        }
      }
    }
    updates.symbols += w.rows();
    updates.macs += w.size();
    updates.weight_writes += changed;
    if (changed > 0) {
      updates.program_events += 1;
      inner.mark_resident(evicted_);
    }
  }

 private:
  Matrix evicted_{1, 1};  ///< resident in place of "nothing programmed"
};

TEST(Train, InSituTrajectoryMatchesScalarRank1Loop) {
  // Batch-1 in-situ training through the photonic tier, once with the
  // update kernel and once with the scalar lround loop it replaced: every
  // loss, weight and ledger counter must agree.
  Rng rng_a(0x7Au);
  Rng rng_b(0x7Au);
  Mlp net_a({64, 128, 64, 10}, Activation::kGstPhotonic, rng_a);
  Mlp net_b({64, 128, 64, 10}, Activation::kGstPhotonic, rng_b);
  Rng data_rng(0x7Bu);
  const Dataset data = pattern_classes(192, 10, 64, 0.05, data_rng);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.learning_rate = 0.05;
  cfg.batch_size = 1;
  core::PhotonicBackend kernel;
  ScalarRank1Photonic scalar;
  const TrainResult ra = fit(net_a, data, cfg, kernel);
  const TrainResult rb = fit(net_b, data, cfg, scalar);
  EXPECT_EQ(ra.epoch_loss, rb.epoch_loss);
  for (int k = 0; k < net_a.depth(); ++k) {
    const auto& wa = net_a.weight(k).data();
    const auto& wb = net_b.weight(k).data();
    for (std::size_t i = 0; i < wa.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(wa[i]),
                std::bit_cast<std::uint64_t>(wb[i]))
          << "layer " << k << ", cell " << i;
    }
  }
  EXPECT_EQ(kernel.ledger(), scalar.inner.ledger() + scalar.updates);
  EXPECT_GT(scalar.updates.weight_writes, 0u);
}

TEST(Train, MinibatchesAlsoLearn) {
  Rng rng(11);
  Dataset data = gaussian_blobs(240, 3, 4, 4.0, 0.4, rng);
  Mlp net({4, 16, 3}, Activation::kReLU, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 15;
  cfg.learning_rate = 0.05;
  cfg.batch_size = 16;  // doesn't divide 240 evenly → exercises the tail
  const TrainResult r = fit(net, data, cfg, backend);
  EXPECT_GT(r.final_accuracy(), 0.95);
  EXPECT_LT(r.final_loss(), r.epoch_loss.front());
}

TEST(Train, RejectsNonPositiveBatchSize) {
  Rng rng(12);
  Dataset data = gaussian_blobs(20, 2, 3, 2.0, 0.3, rng);
  Mlp net({3, 4, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.batch_size = 0;
  EXPECT_THROW((void)fit(net, data, cfg, backend), Error);
}

TEST(Train, DeterministicForFixedSeeds) {
  Rng rng_a(9), rng_b(9);
  Dataset data_a = gaussian_blobs(50, 2, 3, 3.0, 0.3, rng_a);
  Dataset data_b = gaussian_blobs(50, 2, 3, 3.0, 0.3, rng_b);
  Mlp net_a({3, 6, 2}, Activation::kReLU, rng_a);
  Mlp net_b({3, 6, 2}, Activation::kReLU, rng_b);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 5;
  const TrainResult ra = fit(net_a, data_a, cfg, backend);
  const TrainResult rb = fit(net_b, data_b, cfg, backend);
  EXPECT_EQ(ra.epoch_loss, rb.epoch_loss);
  EXPECT_EQ(ra.epoch_accuracy, rb.epoch_accuracy);
}

TEST(Train, EmptyResultAccessorsThrowInsteadOfUB) {
  // Regression: final_loss()/final_accuracy() used to call .back() on the
  // empty vectors of a default-constructed result — undefined behaviour.
  const TrainResult empty;
  EXPECT_THROW((void)empty.final_loss(), Error);
  EXPECT_THROW((void)empty.final_accuracy(), Error);
}

TEST(Train, StartEpochValidated) {
  Rng rng(4);
  Dataset data = gaussian_blobs(60, 2, 3, 4.0, 0.4, rng);
  Mlp net({3, 8, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.start_epoch = -1;
  EXPECT_THROW((void)fit(net, data, cfg, backend), Error);
  cfg.start_epoch = 5;  // beyond the schedule
  EXPECT_THROW((void)fit(net, data, cfg, backend), Error);
}

TEST(Train, ResumedFitContinuesBitIdentically) {
  // fit(epochs = k) followed by fit(start_epoch = k, epochs = n) on the
  // same network must equal one uninterrupted fit(epochs = n) — weights,
  // records, everything.  This is the contract checkpoint/resume rests on.
  Rng rng_a(5);
  Dataset data = two_moons(120, 0.1, rng_a);
  data.augment_bias();

  Rng init_a(9);
  Mlp straight({3, 10, 2}, Activation::kReLU, init_a);
  FloatBackend backend_a;
  TrainConfig full;
  full.epochs = 8;
  full.learning_rate = 0.1;
  const TrainResult r_full = fit(straight, data, full, backend_a);

  Rng init_b(9);
  Mlp resumed({3, 10, 2}, Activation::kReLU, init_b);
  FloatBackend backend_b;
  TrainConfig first = full;
  first.epochs = 3;
  const TrainResult r1 = fit(resumed, data, first, backend_b);
  TrainConfig second = full;
  second.start_epoch = 3;
  const TrainResult r2 = fit(resumed, data, second, backend_b);

  ASSERT_EQ(r1.epoch_loss.size(), 3u);
  ASSERT_EQ(r2.epoch_loss.size(), 5u);
  std::vector<double> stitched = r1.epoch_loss;
  stitched.insert(stitched.end(), r2.epoch_loss.begin(), r2.epoch_loss.end());
  EXPECT_EQ(stitched, r_full.epoch_loss);
  for (int k = 0; k < straight.depth(); ++k) {
    EXPECT_EQ(resumed.weight(k).data(), straight.weight(k).data())
        << "layer " << k;
  }
}

TEST(Train, OnEpochEndSeesAbsoluteEpochAndRunningRecords) {
  Rng rng(6);
  Dataset data = gaussian_blobs(60, 2, 3, 4.0, 0.4, rng);
  Mlp net({3, 8, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.start_epoch = 2;
  std::vector<int> seen;
  std::vector<std::size_t> record_sizes;
  cfg.on_epoch_end = [&](int epoch, const TrainResult& so_far) {
    seen.push_back(epoch);
    record_sizes.push_back(so_far.epoch_loss.size());
  };
  const TrainResult r = fit(net, data, cfg, backend);
  EXPECT_EQ(seen, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(record_sizes, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(r.epoch_loss.size(), 3u);
}

}  // namespace
}  // namespace trident::nn

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/mlp.h"
#include "util/random.h"

namespace wym::nn {
namespace {

MlpOptions SmallOptions() {
  MlpOptions options;
  options.hidden = {16, 8};
  options.epochs = 200;
  options.batch_size = 16;
  options.learning_rate = 5e-3;
  options.clamp_output = false;
  options.seed = 11;
  return options;
}

TEST(MlpTest, LearnsLinearFunction) {
  Rng rng(5);
  la::Matrix x(128, 2);
  std::vector<double> y(128);
  for (size_t i = 0; i < 128; ++i) {
    x.At(i, 0) = rng.Uniform(-1, 1);
    x.At(i, 1) = rng.Uniform(-1, 1);
    y[i] = 0.5 * x.At(i, 0) - 0.3 * x.At(i, 1);
  }
  Mlp mlp(SmallOptions());
  mlp.Fit(x, y);
  double error = 0.0;
  for (size_t i = 0; i < 128; ++i) {
    error += std::fabs(mlp.Predict(x.RowVector(i)) - y[i]);
  }
  EXPECT_LT(error / 128.0, 0.08);
}

TEST(MlpTest, LearnsNonlinearXor) {
  // XOR-ish: y = 1 when signs differ, -1 otherwise. Needs a hidden layer.
  Rng rng(9);
  la::Matrix x(256, 2);
  std::vector<double> y(256);
  for (size_t i = 0; i < 256; ++i) {
    x.At(i, 0) = rng.Uniform(-1, 1);
    x.At(i, 1) = rng.Uniform(-1, 1);
    y[i] = (x.At(i, 0) * x.At(i, 1) < 0) ? 1.0 : -1.0;
  }
  MlpOptions options = SmallOptions();
  options.epochs = 400;
  Mlp mlp(options);
  mlp.Fit(x, y);
  size_t correct = 0;
  for (size_t i = 0; i < 256; ++i) {
    const double predicted = mlp.Predict(x.RowVector(i));
    if ((predicted > 0) == (y[i] > 0)) ++correct;
  }
  EXPECT_GT(correct, 230u);  // > 90%.
}

TEST(MlpTest, ClampBoundsOutput) {
  la::Matrix x(8, 1);
  std::vector<double> y(8, 100.0);  // Targets far outside [-1, 1].
  for (size_t i = 0; i < 8; ++i) x.At(i, 0) = 1.0;
  MlpOptions options = SmallOptions();
  options.clamp_output = true;
  Mlp mlp(options);
  mlp.Fit(x, y);
  EXPECT_LE(mlp.Predict({1.0}), 1.0);
  EXPECT_GE(mlp.Predict({1.0}), -1.0);
}

TEST(MlpTest, DeterministicForSeed) {
  Rng rng(3);
  la::Matrix x(32, 3);
  std::vector<double> y(32);
  for (size_t i = 0; i < 32; ++i) {
    for (size_t j = 0; j < 3; ++j) x.At(i, j) = rng.Uniform();
    y[i] = rng.Uniform();
  }
  MlpOptions options = SmallOptions();
  options.epochs = 20;
  Mlp a(options), b(options);
  a.Fit(x, y);
  b.Fit(x, y);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.Predict(x.RowVector(i)), b.Predict(x.RowVector(i)));
  }
}

TEST(MlpTest, PredictBatchMatchesPredict) {
  la::Matrix x(16, 2, 0.5);
  std::vector<double> y(16, 0.25);
  MlpOptions options = SmallOptions();
  options.epochs = 10;
  Mlp mlp(options);
  mlp.Fit(x, y);
  const auto batch = mlp.PredictBatch(x);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], mlp.Predict(x.RowVector(i)));
  }
}

TEST(MlpTest, PredictRowsEqualsPredictRowByRow) {
  // 150 rows span more than one internal chunk; width 9 and the
  // {16, 8} hidden layers exercise the dense kernel's tails.
  Rng rng(23);
  la::Matrix x(150, 9);
  std::vector<double> y(150);
  for (size_t i = 0; i < 150; ++i) {
    for (size_t j = 0; j < 9; ++j) x.At(i, j) = rng.Uniform(-1, 1);
    y[i] = x.At(i, 0) * x.At(i, 4);
  }
  MlpOptions options = SmallOptions();
  options.epochs = 5;
  Mlp mlp(options);
  mlp.Fit(x, y);
  std::vector<double> block(x.rows());
  mlp.PredictRows(x.data().data(), x.rows(), block.data());
  for (size_t i = 0; i < x.rows(); ++i) {
    const double single = mlp.Predict(x.RowVector(i));
    EXPECT_EQ(std::memcmp(&block[i], &single, sizeof(double)), 0) << i;
  }
}

TEST(MlpTest, PaperTopologyTrains) {
  // The paper's 300/64/32 topology must at least fit a small dataset.
  Rng rng(17);
  la::Matrix x(64, 10);
  std::vector<double> y(64);
  for (size_t i = 0; i < 64; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 10; ++j) {
      x.At(i, j) = rng.Uniform(-1, 1);
      sum += x.At(i, j);
    }
    y[i] = sum > 0 ? 1.0 : -1.0;
  }
  MlpOptions options;  // Paper defaults: hidden {300, 64, 32}.
  options.epochs = 60;
  options.batch_size = 16;
  options.learning_rate = 1e-3;
  Mlp mlp(options);
  mlp.Fit(x, y);
  size_t correct = 0;
  for (size_t i = 0; i < 64; ++i) {
    if ((mlp.Predict(x.RowVector(i)) > 0) == (y[i] > 0)) ++correct;
  }
  EXPECT_GT(correct, 55u);
}

}  // namespace
}  // namespace wym::nn

#ifndef WYM_NN_MLP_H_
#define WYM_NN_MLP_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "util/serde.h"

/// \file
/// A dense feed-forward network with ReLU hidden activations trained with
/// Adam on minibatches. This is the substrate for WYM's decision-unit
/// relevance scorer (paper §4.2: 3 hidden layers of 300/64/32 ReLU units,
/// minibatch training). The output is a single linear unit; regression
/// targets live in [-1, 1].

namespace wym::nn {

/// Training hyper-parameters.
struct MlpOptions {
  /// Hidden layer widths (paper: {300, 64, 32}).
  std::vector<size_t> hidden = {300, 64, 32};
  size_t epochs = 40;
  size_t batch_size = 256;
  double learning_rate = 3e-4;
  /// L2 weight decay.
  double weight_decay = 1e-5;
  /// Clamp network outputs to [-1, 1] at prediction time (relevance-score
  /// range, paper §3.1.2).
  bool clamp_output = true;
  uint64_t seed = 0x317a;
};

/// Multi-layer perceptron regressor.
class Mlp {
 public:
  explicit Mlp(MlpOptions options = {});

  /// Trains on rows of `x` against scalar targets `y` with MSE loss.
  /// Requires x.rows() == y.size() and x.rows() > 0.
  void Fit(const la::Matrix& x, const std::vector<double>& y);

  /// Predicts a scalar for one feature row (size = input dim).
  double Predict(const std::vector<double>& row) const;

  /// Batch prediction.
  std::vector<double> PredictBatch(const la::Matrix& x) const;

  /// Block prediction: `x` holds `rows` row-major feature rows of width
  /// input_dim(); out[r] receives row r's prediction. Runs every layer
  /// through la::kernels::DenseLayer over reused thread-local scratch.
  /// Predict and PredictBatch are this call with one row / all rows.
  void PredictRows(const double* x, size_t rows, double* out) const;

  /// Serializes the trained network (topology + weights + the
  /// inference-relevant options).
  void Save(serde::Serializer* s) const;
  /// Restores a Save()d network; returns false on malformed input,
  /// including a layer chain whose shapes do not connect input_dim()
  /// to one output.
  bool Load(serde::Deserializer* d);

  bool fitted() const { return fitted_; }
  size_t input_dim() const { return input_dim_; }

 private:
  struct Layer {
    la::Matrix weights;        // out x in
    std::vector<double> bias;  // out
  };

  /// Block forward pass over `rows` row-major input rows: (*outputs)[l]
  /// receives layer l's rows x width output (post-ReLU for hidden
  /// layers, linear for the last). Buffers are resized in place, so a
  /// caller that keeps `outputs` reuses their capacity.
  void Forward(const double* x, size_t rows,
               std::vector<std::vector<double>>* outputs) const;

  MlpOptions options_;
  bool fitted_ = false;
  size_t input_dim_ = 0;
  std::vector<Layer> layers_;
};

}  // namespace wym::nn

#endif  // WYM_NN_MLP_H_

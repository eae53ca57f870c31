#include "nn/mlp.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"
#include "util/logging.h"
#include "util/random.h"

namespace wym::nn {

namespace {

/// Adam state for one parameter tensor (flat).
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;
};

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

void AdamStep(std::vector<double>* params, const std::vector<double>& grads,
              AdamState* state, double lr, double weight_decay, size_t t) {
  if (state->m.empty()) {
    state->m.assign(params->size(), 0.0);
    state->v.assign(params->size(), 0.0);
  }
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t));
  for (size_t i = 0; i < params->size(); ++i) {
    const double g = grads[i] + weight_decay * (*params)[i];
    state->m[i] = kBeta1 * state->m[i] + (1.0 - kBeta1) * g;
    state->v[i] = kBeta2 * state->v[i] + (1.0 - kBeta2) * g * g;
    const double m_hat = state->m[i] / bias1;
    const double v_hat = state->v[i] / bias2;
    (*params)[i] -= lr * m_hat / (std::sqrt(v_hat) + kEpsilon);
  }
}

}  // namespace

Mlp::Mlp(MlpOptions options) : options_(std::move(options)) {}

void Mlp::Forward(const double* x, size_t rows,
                  std::vector<std::vector<double>>* outputs) const {
  outputs->resize(layers_.size());
  const double* input = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double>& out = (*outputs)[l];
    out.resize(rows * layer.weights.rows());
    la::kernels::DenseLayer(input, rows, layer.weights.cols(),
                            layer.weights.data().data(), layer.bias.data(),
                            layer.weights.rows(),
                            /*relu=*/l + 1 < layers_.size(), out.data());
    input = out.data();
  }
}

void Mlp::Fit(const la::Matrix& x, const std::vector<double>& y) {
  WYM_CHECK_EQ(x.rows(), y.size());
  WYM_CHECK_GT(x.rows(), 0u);
  input_dim_ = x.cols();

  // He-initialized layers: hidden... -> 1 linear output.
  Rng rng(options_.seed);
  std::vector<size_t> sizes;
  sizes.push_back(input_dim_);
  for (size_t h : options_.hidden) sizes.push_back(h);
  sizes.push_back(1);
  layers_.clear();
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    Layer layer;
    layer.weights = la::Matrix(sizes[l + 1], sizes[l]);
    layer.bias.assign(sizes[l + 1], 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(sizes[l]));
    for (size_t o = 0; o < sizes[l + 1]; ++o) {
      for (size_t i = 0; i < sizes[l]; ++i) {
        layer.weights.At(o, i) = rng.Normal(0.0, scale);
      }
    }
    layers_.push_back(std::move(layer));
  }

  // Per-layer Adam state.
  std::vector<AdamState> weight_state(layers_.size());
  std::vector<AdamState> bias_state(layers_.size());

  std::vector<size_t> order(x.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  size_t step = 0;
  // Reused across minibatches: the gathered input rows, each layer's
  // block output, the per-layer gradients and the backprop deltas.
  std::vector<double> batch_x;
  std::vector<std::vector<double>> outputs;
  std::vector<std::vector<double>> grad_w(layers_.size());
  std::vector<std::vector<double>> grad_b(layers_.size());
  std::vector<double> delta;
  std::vector<double> prev_delta;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += options_.batch_size) {
      const size_t end = std::min(order.size(), start + options_.batch_size);
      const size_t n = end - start;
      const double inv_batch = 1.0 / static_cast<double>(n);

      // Weights only change after the minibatch, so its forward pass is
      // one block pass over the gathered rows.
      batch_x.resize(n * input_dim_);
      for (size_t s = 0; s < n; ++s) {
        std::copy_n(x.Row(order[start + s]), input_dim_,
                    batch_x.data() + s * input_dim_);
      }
      Forward(batch_x.data(), n, &outputs);

      // Accumulated gradients, flat per layer (weights row-major,
      // matching la::Matrix storage).
      for (size_t l = 0; l < layers_.size(); ++l) {
        grad_w[l].assign(layers_[l].weights.data().size(), 0.0);
        grad_b[l].assign(layers_[l].bias.size(), 0.0);
      }

      for (size_t s = 0; s < n; ++s) {
        const size_t row = order[start + s];
        // d(0.5*(out-y)^2)/dout
        delta.assign(1, (outputs.back()[s] - y[row]) * inv_batch);

        // Backprop. The input of layer l is row s of the batch (l == 0)
        // or of layer l-1's post-ReLU output.
        for (size_t l = layers_.size(); l-- > 0;) {
          Layer& layer = layers_[l];
          const size_t in = layer.weights.cols();
          const double* input = l == 0 ? batch_x.data() + s * in
                                       : outputs[l - 1].data() + s * in;
          // Gradients of this layer.
          for (size_t o = 0; o < layer.weights.rows(); ++o) {
            const double d = delta[o];
            if (d == 0.0) continue;
            la::kernels::Axpy(d, input, grad_w[l].data() + o * in, in);
            grad_b[l][o] += d;
          }
          if (l == 0) break;
          // Delta for the previous layer (through this layer's weights and
          // the previous layer's ReLU).
          prev_delta.assign(in, 0.0);
          for (size_t o = 0; o < layer.weights.rows(); ++o) {
            const double d = delta[o];
            if (d == 0.0) continue;
            la::kernels::Axpy(d, layer.weights.Row(o), prev_delta.data(), in);
          }
          for (size_t i = 0; i < in; ++i) {
            if (input[i] <= 0.0) prev_delta[i] = 0.0;  // ReLU'
          }
          delta.swap(prev_delta);
        }
      }

      ++step;
      for (size_t l = 0; l < layers_.size(); ++l) {
        AdamStep(&layers_[l].weights.data(), grad_w[l], &weight_state[l],
                 options_.learning_rate, options_.weight_decay, step);
        AdamStep(&layers_[l].bias, grad_b[l], &bias_state[l],
                 options_.learning_rate, 0.0, step);
      }
    }
  }
  fitted_ = true;
}

void Mlp::Save(serde::Serializer* s) const {
  s->Tag("mlp/v1");
  s->Bool(fitted_);
  s->Bool(options_.clamp_output);
  s->U64(input_dim_);
  s->U64(layers_.size());
  for (const Layer& layer : layers_) {
    layer.weights.Save(s);
    s->VecF64(layer.bias);
  }
}

bool Mlp::Load(serde::Deserializer* d) {
  if (!d->Tag("mlp/v1")) return false;
  const bool fitted = d->Bool();
  const bool clamp_output = d->Bool();
  const uint64_t input_dim = d->U64();
  const uint64_t n_layers = d->U64();
  if (!d->ok() || n_layers > 64) return false;
  // A fitted network is a chain from input_dim features to one output:
  // the block forward pass trusts these shapes.
  if (fitted && n_layers == 0) return false;
  std::vector<Layer> layers(n_layers);
  uint64_t width = input_dim;
  for (Layer& layer : layers) {
    if (!layer.weights.Load(d)) return false;
    layer.bias = d->VecF64();
    if (!d->ok() || layer.bias.size() != layer.weights.rows() ||
        layer.weights.cols() != width) {
      return false;
    }
    width = layer.weights.rows();
  }
  if (n_layers > 0 && width != 1) return false;
  fitted_ = fitted;
  options_.clamp_output = clamp_output;
  input_dim_ = input_dim;
  layers_ = std::move(layers);
  return true;
}

double Mlp::Predict(const std::vector<double>& row) const {
  WYM_CHECK_EQ(row.size(), input_dim_);
  double out = 0.0;
  PredictRows(row.data(), 1, &out);
  return out;
}

std::vector<double> Mlp::PredictBatch(const la::Matrix& x) const {
  WYM_CHECK(x.rows() == 0 || x.cols() == input_dim_);
  std::vector<double> out(x.rows());
  PredictRows(x.data().data(), x.rows(), out.data());
  return out;
}

void Mlp::PredictRows(const double* x, size_t rows, double* out) const {
  WYM_CHECK(fitted_) << "Mlp used before Fit";
  // Fixed-size chunks bound the scratch (and keep it cache-sized)
  // whatever the caller's batch. Rows are independent, so chunking
  // changes no result.
  constexpr size_t kChunkRows = 64;
  thread_local std::vector<std::vector<double>> scratch;
  for (size_t begin = 0; begin < rows; begin += kChunkRows) {
    const size_t n = std::min(kChunkRows, rows - begin);
    Forward(x + begin * input_dim_, n, &scratch);
    const double* result = scratch.back().data();
    for (size_t r = 0; r < n; ++r) {
      out[begin + r] = options_.clamp_output
                           ? std::clamp(result[r], -1.0, 1.0)
                           : result[r];
    }
  }
}

}  // namespace wym::nn

#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "kernels/reference.h"

namespace perfbench {
namespace {

using lce::Activation;
using lce::Graph;
using lce::Node;
using lce::OpType;
using lce::Padding;
using lce::Value;

[[noreturn]] void Fail(const Node& n, const char* what) {
  std::fprintf(stderr, "oracle: node %s: %s\n", n.name.c_str(), what);
  std::exit(2);
}

float Sign(float x) { return x < 0.0f ? -1.0f : 1.0f; }

float Act(float v, Activation act) {
  switch (act) {
    case Activation::kNone:
      return v;
    case Activation::kRelu:
      return v > 0.0f ? v : 0.0f;
    case Activation::kRelu6:
      return std::min(std::max(v, 0.0f), 6.0f);
    case Activation::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
  }
  return v;
}

int Dim(const Value& v, int i) { return static_cast<int>(v.shape.dim(i)); }
int Channels(const Value& v) { return Dim(v, v.shape.rank() - 1); }

constexpr int kConvThreads = 4;

// NHWC input x OHWI weights, split by output channel over kConvThreads.
void Conv(const Node& n, const Value& in, const Value& w, const float* x,
          float* out) {
  lce::Conv2DGeometry geo;
  geo.batch = Dim(in, 0);
  geo.in_h = Dim(in, 1);
  geo.in_w = Dim(in, 2);
  geo.in_c = Dim(in, 3);
  geo.out_c = Dim(w, 0);
  geo.filter_h = Dim(w, 1);
  geo.filter_w = Dim(w, 2);
  if (Dim(w, 3) != geo.in_c) Fail(n, "weight/input channel mismatch");
  geo.stride_h = n.attrs.conv.stride_h;
  geo.stride_w = n.attrs.conv.stride_w;
  geo.padding = n.attrs.conv.padding;
  const float pad_value = geo.padding == Padding::kSameOne ? 1.0f : 0.0f;

  const std::int64_t wsize = w.constant_data.num_elements();
  std::vector<float> weights(w.constant_data.data<float>(),
                             w.constant_data.data<float>() + wsize);
  if (n.attrs.binarize_weights) {
    for (float& v : weights) v = Sign(v);
  }
  const float* bias = n.attrs.bias.empty() ? nullptr : n.attrs.bias.data();
  const std::int64_t per_n =
      static_cast<std::int64_t>(geo.filter_h) * geo.filter_w * geo.in_c;
  const std::int64_t positions =
      static_cast<std::int64_t>(geo.batch) * geo.out_h() * geo.out_w();
  const int parts = geo.macs() < (1 << 22) ? 1 : std::min(kConvThreads, geo.out_c);

  auto run_part = [&](int part) {
    const int n0 = geo.out_c * part / parts;
    const int n1 = geo.out_c * (part + 1) / parts;
    lce::Conv2DGeometry sub = geo;
    sub.out_c = n1 - n0;
    std::vector<float> tmp(static_cast<std::size_t>(positions) * sub.out_c);
    lce::RefConv2DFloat(x, weights.data() + n0 * per_n, sub, pad_value,
                        nullptr, bias == nullptr ? nullptr : bias + n0,
                        n.attrs.activation, tmp.data());
    for (std::int64_t p = 0; p < positions; ++p) {
      std::copy(tmp.begin() + p * sub.out_c, tmp.begin() + (p + 1) * sub.out_c,
                out + p * geo.out_c + n0);
    }
  };
  std::vector<std::thread> pool;
  for (int part = 1; part < parts; ++part) pool.emplace_back(run_part, part);
  run_part(0);
  for (auto& t : pool) t.join();
}

lce::Pool2DGeometry PoolGeometry(const Node& n, const Value& in) {
  lce::Pool2DGeometry geo = n.attrs.pool;
  geo.batch = Dim(in, 0);
  geo.in_h = Dim(in, 1);
  geo.in_w = Dim(in, 2);
  geo.channels = Dim(in, 3);
  return geo;
}

}  // namespace

std::vector<float> RunOracle(const Graph& g, const std::vector<float>& input) {
  if (g.input_ids().size() != 1 || g.output_ids().size() != 1) {
    std::fprintf(stderr, "oracle: graph must have one input and one output\n");
    std::exit(2);
  }
  std::map<int, std::vector<float>> vals;
  const Value& in_v = g.value(g.input_ids()[0]);
  if (static_cast<std::int64_t>(input.size()) != in_v.shape.num_elements()) {
    std::fprintf(stderr, "oracle: input size mismatch\n");
    std::exit(2);
  }
  vals[in_v.id] = input;
  // Remaining consumers per value, so dead activations are freed early.
  std::map<int, int> uses;
  for (const int id : g.TopologicalOrder()) {
    for (const int v : g.node(id).inputs) ++uses[v];
  }
  for (const int out : g.output_ids()) ++uses[out];

  for (const int id : g.TopologicalOrder()) {
    const Node& n = g.node(id);
    const Value& ov = g.value(n.outputs[0]);
    const Value& iv = g.value(n.inputs[0]);
    if (ov.dtype != lce::DataType::kFloat32) Fail(n, "non-float output");
    std::vector<float> out(static_cast<std::size_t>(ov.shape.num_elements()));
    const std::vector<float>& x = vals.at(iv.id);
    const int c = Channels(iv);
    const std::int64_t count = static_cast<std::int64_t>(x.size());

    switch (n.type) {
      case OpType::kConv2D:
        Conv(n, iv, g.value(n.inputs[1]), x.data(), out.data());
        break;
      case OpType::kDepthwiseConv2D: {
        const Value& w = g.value(n.inputs[1]);
        lce::Conv2DGeometry geo;
        geo.batch = Dim(iv, 0);
        geo.in_h = Dim(iv, 1);
        geo.in_w = Dim(iv, 2);
        geo.in_c = geo.out_c = c;
        geo.filter_h = Dim(w, 0);
        geo.filter_w = Dim(w, 1);
        geo.stride_h = n.attrs.conv.stride_h;
        geo.stride_w = n.attrs.conv.stride_w;
        geo.padding = n.attrs.conv.padding;
        lce::RefDepthwiseConv2DFloat(
            x.data(), w.constant_data.data<float>(), geo,
            n.attrs.bias.empty() ? nullptr : n.attrs.bias.data(),
            n.attrs.activation, out.data());
        break;
      }
      case OpType::kMaxPool2D:
        lce::RefMaxPool2DFloat(x.data(), PoolGeometry(n, iv), out.data());
        break;
      case OpType::kAvgPool2D: {
        // Average over the in-bounds window (padded taps are not counted).
        const lce::Pool2DGeometry geo = PoolGeometry(n, iv);
        std::int64_t o = 0;
        for (int b = 0; b < geo.batch; ++b) {
          for (int oy = 0; oy < geo.out_h(); ++oy) {
            for (int ox = 0; ox < geo.out_w(); ++ox) {
              for (int ch = 0; ch < c; ++ch) {
                double acc = 0.0;
                int taps = 0;
                for (int ky = 0; ky < geo.filter_h; ++ky) {
                  const int iy = oy * geo.stride_h - geo.pad_h_begin() + ky;
                  for (int kx = 0; kx < geo.filter_w; ++kx) {
                    const int ix = ox * geo.stride_w - geo.pad_w_begin() + kx;
                    if (iy < 0 || iy >= geo.in_h || ix < 0 || ix >= geo.in_w)
                      continue;
                    acc += x[((static_cast<std::int64_t>(b) * geo.in_h + iy) *
                                  geo.in_w +
                              ix) *
                                 c +
                             ch];
                    ++taps;
                  }
                }
                out[o++] = taps > 0 ? static_cast<float>(acc / taps) : 0.0f;
              }
            }
          }
        }
        break;
      }
      case OpType::kGlobalAvgPool: {
        const int batch = Dim(iv, 0);
        const std::int64_t hw = static_cast<std::int64_t>(Dim(iv, 1)) * Dim(iv, 2);
        for (int b = 0; b < batch; ++b) {
          for (int ch = 0; ch < c; ++ch) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < hw; ++p) acc += x[(b * hw + p) * c + ch];
            out[b * c + ch] = static_cast<float>(acc / hw);
          }
        }
        break;
      }
      case OpType::kFakeSign:
        for (std::int64_t i = 0; i < count; ++i) out[i] = Sign(x[i]);
        break;
      case OpType::kBatchNorm:
        for (std::int64_t i = 0; i < count; ++i) {
          out[i] = x[i] * n.attrs.bn_scale[i % c] + n.attrs.bn_offset[i % c];
        }
        break;
      case OpType::kRelu:
        for (std::int64_t i = 0; i < count; ++i) out[i] = Act(x[i], Activation::kRelu);
        break;
      case OpType::kPRelu:
        for (std::int64_t i = 0; i < count; ++i) {
          out[i] = x[i] > 0.0f ? x[i] : x[i] * n.attrs.prelu_slope[i % c];
        }
        break;
      case OpType::kAdd: {
        const std::vector<float>& y = vals.at(n.inputs[1]);
        for (std::int64_t i = 0; i < count; ++i) {
          out[i] = Act(x[i] + y[i], n.attrs.activation);
        }
        break;
      }
      case OpType::kConcat: {
        const int out_c = Channels(ov);
        const std::int64_t outer = count / c;
        int offset = 0;
        for (const int in_id : n.inputs) {
          const std::vector<float>& src = vals.at(in_id);
          const int ci = Channels(g.value(in_id));
          for (std::int64_t r = 0; r < outer; ++r) {
            for (int j = 0; j < ci; ++j) out[r * out_c + offset + j] = src[r * ci + j];
          }
          offset += ci;
        }
        break;
      }
      case OpType::kSlice: {
        const std::int64_t outer = count / c;
        const int begin = n.attrs.slice_begin, width = n.attrs.slice_count;
        for (std::int64_t r = 0; r < outer; ++r) {
          for (int j = 0; j < width; ++j) out[r * width + j] = x[r * c + begin + j];
        }
        break;
      }
      case OpType::kMulChannel: {
        const std::vector<float>& gate = vals.at(n.inputs[1]);
        const int batch = Dim(iv, 0);
        const std::int64_t per_batch = count / batch;
        for (std::int64_t i = 0; i < count; ++i) {
          out[i] = x[i] * gate[(i / per_batch) * c + i % c];
        }
        break;
      }
      case OpType::kFullyConnected: {
        const Value& w = g.value(n.inputs[1]);
        const int out_f = Dim(w, 0), in_f = Dim(w, 1);
        const float* pw = w.constant_data.data<float>();
        const std::int64_t batch = count / in_f;
        for (std::int64_t b = 0; b < batch; ++b) {
          for (int j = 0; j < out_f; ++j) {
            double acc = 0.0;
            for (int i = 0; i < in_f; ++i) {
              const float wv = pw[static_cast<std::int64_t>(j) * in_f + i];
              acc += static_cast<double>(x[b * in_f + i]) *
                     (n.attrs.binarize_weights ? Sign(wv) : wv);
            }
            float y = static_cast<float>(acc);
            if (!n.attrs.bias.empty()) y += n.attrs.bias[j];
            out[b * out_f + j] = Act(y, n.attrs.activation);
          }
        }
        break;
      }
      case OpType::kSoftmax: {
        const std::int64_t rows = count / c;
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* row = x.data() + r * c;
          const double m = *std::max_element(row, row + c);
          double sum = 0.0;
          for (int j = 0; j < c; ++j) sum += std::exp(row[j] - m);
          for (int j = 0; j < c; ++j) {
            out[r * c + j] = static_cast<float>(std::exp(row[j] - m) / sum);
          }
        }
        break;
      }
      default:
        Fail(n, "op is not part of the training dialect");
    }
    vals[ov.id] = std::move(out);
    for (const int v : n.inputs) {
      if (--uses[v] == 0) vals.erase(v);
    }
  }
  return vals.at(g.output_ids()[0]);
}

}  // namespace perfbench

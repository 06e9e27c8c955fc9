#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "nn/activation.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/gemm_s8.hpp"
#include "nn/kernels/pool.hpp"
#include "nn/loss.hpp"
#include "obs/obs.hpp"

namespace agebo::serve {

namespace {

/// Pops the next parameter block from the artifact, checking the expected
/// element count so a spec/weights mismatch fails at load, not predict.
const std::vector<float>& take_block(const nn::ModelArtifact& artifact,
                                     std::size_t& at, std::size_t want,
                                     const char* what) {
  if (at >= artifact.blocks.size()) {
    throw std::runtime_error(
        std::string("InferenceEngine: artifact has too few parameter "
                    "blocks (missing ") +
        what + ")");
  }
  const auto& block = artifact.blocks[at];
  if (block.size() != want) {
    throw std::runtime_error(
        std::string("InferenceEngine: parameter block size mismatch for ") +
        what + ": got " + std::to_string(block.size()) + ", want " +
        std::to_string(want));
  }
  ++at;
  return block;
}

std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

/// Append t's [min, max] to `out` when calibration is recording.
void record_minmax(std::vector<std::pair<float, float>>* out,
                   const nn::Tensor& t) {
  if (out == nullptr) return;
  float lo = 0.0f;
  float hi = 0.0f;
  if (!t.v.empty()) {
    const auto [mn, mx] = std::minmax_element(t.v.begin(), t.v.end());
    lo = *mn;
    hi = *mx;
  }
  out->emplace_back(lo, hi);
}

}  // namespace

InferenceEngine::InferenceEngine(nn::ModelArtifact artifact, EngineMode mode)
    : artifact_(std::move(artifact)), mode_(mode) {
  const nn::GraphSpec& spec = artifact_.spec;
  spec.validate();
  const std::size_t m = spec.nodes.size();

  dims_.resize(m + 1);
  dims_[0] = spec.input_dim;
  node_dense_.resize(m);
  node_combine_.resize(m);

  std::size_t at = 0;
  auto build_combine = [&](const std::vector<std::size_t>& skips,
                           std::size_t base_dim) {
    Combine c;
    for (std::size_t src : skips) {
      Edge edge{src, std::nullopt, std::nullopt};
      if (dims_[src] != base_dim) {
        // Width-matching projection: bias-less, one W block in params()
        // order, stored as (src_dim x base_dim) just like DenseLayer.
        const auto& w = take_block(artifact_, at, dims_[src] * base_dim,
                                   "skip projection");
        edge.proj.emplace();
        edge.proj->w = nn::Tensor(dims_[src], base_dim);
        edge.proj->w.v = w;
        flops_per_row_ += 2 * w.size();
      }
      c.edges.push_back(std::move(edge));
    }
    return c;
  };

  for (std::size_t k = 0; k < m; ++k) {
    const nn::NodeSpec& ns = spec.nodes[k];
    node_combine_[k] = build_combine(ns.skips, dims_[k]);
    if (ns.is_identity) {
      dims_[k + 1] = dims_[k];
    } else {
      auto& dense = node_dense_[k].emplace();
      dense.w = nn::Tensor(dims_[k], ns.units);
      dense.w.v = take_block(artifact_, at, dims_[k] * ns.units, "dense W");
      dense.b = take_block(artifact_, at, ns.units, "dense bias");
      flops_per_row_ += 2 * dense.w.v.size();
      dims_[k + 1] = ns.units;
    }
  }
  output_combine_ = build_combine(spec.output_skips, dims_[m]);
  output_dense_.w = nn::Tensor(dims_[m], spec.output_dim);
  output_dense_.w.v =
      take_block(artifact_, at, dims_[m] * spec.output_dim, "readout W");
  output_dense_.b = take_block(artifact_, at, spec.output_dim, "readout bias");
  flops_per_row_ += 2 * output_dense_.w.v.size();
  if (at != artifact_.blocks.size()) {
    throw std::runtime_error(
        "InferenceEngine: artifact has " +
        std::to_string(artifact_.blocks.size()) + " parameter blocks, but " +
        "the architecture consumes only " + std::to_string(at));
  }

  node_quant_.resize(m);
  if (mode_ == EngineMode::kInt8) build_quantized();
}

// Cross-checks the v3 quant section against the architecture and
// precomputes the gemm_u8s8 epilogue vectors (plus the pre-packed B
// panels). Quantizable-op order (index = ordinal): for each node, its
// skip-projection edges in edge order, then its dense op; then the output
// skip projections; then the readout.
void InferenceEngine::build_quantized() {
  if (!artifact_.has_quant()) {
    throw std::runtime_error(
        "InferenceEngine: int8 mode requested but the artifact has no quant "
        "section (calibrate with quantize_artifact first, or load a v3 "
        "artifact)");
  }
  const std::size_t m = artifact_.spec.nodes.size();
  auto find_layer = [&](std::size_t index) -> const nn::QuantLayer& {
    for (const auto& ql : artifact_.quant) {
      if (ql.index == index) return ql;
    }
    throw std::runtime_error(
        "InferenceEngine: quant section is missing quantizable op " +
        std::to_string(index));
  };
  auto build_one = [&](const nn::QuantLayer& ql, const Linear& dense,
                       std::size_t index) {
    if (ql.rows != dense.w.rows || ql.cols != dense.w.cols ||
        ql.wq.size() != ql.rows * ql.cols || ql.w_scales.size() != ql.cols) {
      throw std::runtime_error(
          "InferenceEngine: quant shape mismatch for op " +
          std::to_string(index) + ": got " + std::to_string(ql.rows) + "x" +
          std::to_string(ql.cols) + ", want " + std::to_string(dense.w.rows) +
          "x" + std::to_string(dense.w.cols));
    }
    QuantLinear q;
    q.rows = ql.rows;
    q.cols = ql.cols;
    q.inv_scale = 1.0f / ql.input.scale;
    q.zp = ql.input.zero_point;
    q.wq = ql.wq;
    q.dq_scale = nn::dequant_scales(ql);
    q.comp = nn::zero_point_compensation(ql);
    q.packed = nn::kernels::pack_weights_s8(q.wq.data(), q.cols, q.rows,
                                            q.cols);
    return q;
  };

  std::size_t index = 0;
  auto attach_edges = [&](Combine& c) {
    for (auto& edge : c.edges) {
      if (!edge.proj.has_value()) continue;
      edge.qproj = build_one(find_layer(index), *edge.proj, index);
      ++index;
    }
  };
  for (std::size_t k = 0; k < m; ++k) {
    attach_edges(node_combine_[k]);
    if (!node_dense_[k].has_value()) continue;
    node_quant_[k] = build_one(find_layer(index), *node_dense_[k], index);
    ++index;
  }
  attach_edges(output_combine_);
  output_quant_ = build_one(find_layer(index), output_dense_, index);
  ++index;
  if (artifact_.quant.size() != index) {
    throw std::runtime_error(
        "InferenceEngine: quant section has " +
        std::to_string(artifact_.quant.size()) + " layers but the " +
        "architecture has " + std::to_string(index) + " quantizable ops");
  }
}

std::size_t InferenceEngine::num_params() const {
  std::size_t n = 0;
  for (const auto& block : artifact_.blocks) n += block.size();
  return n;
}

// One frozen dense op: out = in·W (+ bias, activation), or out += in·W
// when `accumulate` (skip projections, which have no bias). In fp32 mode
// this is GraphNet::forward's exact kernel call: the fused epilogue stages
// the pre-activation like the trainer, and an accumulate GEMM adds straight
// into the combine sum like DenseLayer::forward_add. In kInt8 mode (`q`
// set) the same op runs through gemm_u8s8: activations quantized while
// the A panel packs, s32 accumulation, fused dequant + bias + activation
// back to fp32.
void InferenceEngine::gemm_op(const Linear& op,
                              const std::optional<QuantLinear>& q,
                              nn::Activation act, const nn::Tensor& in,
                              nn::Tensor& out, nn::Tensor* pre_act,
                              bool accumulate, Ranges* calib) const {
  const std::size_t n = in.rows;
  const std::size_t cols = op.w.cols;
  if (!accumulate) nn::ensure_shape(out, n, cols);
  const float* bias = op.b.empty() ? nullptr : op.b.data();
  if (q.has_value()) {
    nn::kernels::QuantEpilogue qep;
    qep.dq_scale = q->dq_scale.data();
    qep.comp = q->comp.data();
    qep.bias = bias;
    qep.act = act;
    qep.accumulate = accumulate;
    nn::kernels::gemm_u8s8(n, cols, q->rows, in.v.data(), q->rows,
                           q->inv_scale, q->zp, q->wq.data(), cols,
                           out.v.data(), cols, qep, &q->packed);
    return;
  }
  record_minmax(calib, in);  // every fp32 GEMM input is a quantizable op
  nn::kernels::Epilogue ep;
  ep.bias = bias;
  ep.act = act;
  if (pre_act != nullptr) {
    nn::ensure_shape(*pre_act, n, cols);
    ep.pre_act = pre_act->v.data();
  }
  nn::kernels::gemm(n, cols, op.w.rows, in.v.data(), op.w.rows,
                    op.w.v.data(), cols, out.v.data(), cols, accumulate,
                    accumulate ? nullptr : &ep);
}

// Mirrors GraphNet::combine_forward: sum = base (+ projected skips), then
// ReLU into the shared combine buffer. Identity skips and the ReLU are
// elementwise fp32 in both modes.
const nn::Tensor& InferenceEngine::combine_forward(Scratch& s,
                                                   const Combine& c,
                                                   const nn::Tensor& base,
                                                   Ranges* calib) const {
  s.combine_sum = base;  // capacity-reusing copy
  for (const auto& edge : c.edges) {
    const nn::Tensor& src = s.outs[edge.src];
    if (edge.proj.has_value()) {
      gemm_op(*edge.proj, edge.qproj, nn::Activation::kIdentity, src,
              s.combine_sum, nullptr, /*accumulate=*/true, calib);
    } else {
      nn::add_inplace(s.combine_sum, src);
    }
  }
  nn::apply_activation(nn::Activation::kRelu, s.combine_sum, s.combine_buf);
  return s.combine_buf;
}

void InferenceEngine::forward(Scratch& s, const float* rows, std::size_t n,
                              Ranges* calib) const {
  const nn::GraphSpec& spec = artifact_.spec;
  const std::size_t m = spec.nodes.size();
  s.outs.resize(m + 1);
  s.pre_act.resize(m);
  nn::ensure_shape(s.outs[0], n, spec.input_dim);
  std::memcpy(s.outs[0].v.data(), rows, n * spec.input_dim * sizeof(float));

  for (std::size_t k = 0; k < m; ++k) {
    const nn::Tensor* node_input = &s.outs[k];
    if (node_combine_[k].active()) {
      node_input = &combine_forward(s, node_combine_[k], s.outs[k], calib);
    }
    if (spec.nodes[k].is_identity) {
      s.outs[k + 1] = *node_input;  // combine_buf is reused; must copy
    } else {
      gemm_op(*node_dense_[k], node_quant_[k], spec.nodes[k].act, *node_input,
              s.outs[k + 1], &s.pre_act[k], /*accumulate=*/false, calib);
    }
  }

  const nn::Tensor* readout_input = &s.outs[m];
  if (output_combine_.active()) {
    readout_input = &combine_forward(s, output_combine_, s.outs[m], calib);
  }
  gemm_op(output_dense_, output_quant_, nn::Activation::kIdentity,
          *readout_input, s.logits, nullptr, /*accumulate=*/false, calib);
}

nn::ModelArtifact InferenceEngine::quantized_artifact(const float* rows,
                                                      std::size_t n) const {
  if (mode_ != EngineMode::kFp32) {
    throw std::runtime_error(
        "quantized_artifact: calibration runs on a kFp32 engine");
  }
  if (n == 0 || rows == nullptr) {
    throw std::runtime_error(
        "quantized_artifact: need at least one calibration row");
  }
  // Ranges must span all n rows, so calibration runs as a single shard on
  // the calling thread.
  Ranges ranges;
  {
    nn::kernels::ScopedThreadLimit serial(1);
    Scratch s;
    forward(s, rows, n, &ranges);
  }

  // Same traversal order as build_quantized / the calibration recording:
  // per node, projection edges then the dense op; output projections; the
  // readout.
  nn::ModelArtifact out = artifact_;
  out.quant.clear();
  std::size_t index = 0;
  auto push_layer = [&](const Linear& op) {
    nn::QuantLayer ql;
    ql.index = index;
    ql.input = nn::act_quant_from_range(ranges[index].first,
                                        ranges[index].second);
    nn::quantize_weights_per_col(op.w.v.data(), op.w.rows, op.w.cols, ql);
    out.quant.push_back(std::move(ql));
    ++index;
  };
  auto push_edges = [&](const Combine& c) {
    for (const auto& edge : c.edges) {
      if (edge.proj.has_value()) push_layer(*edge.proj);
    }
  };
  for (std::size_t k = 0; k < node_dense_.size(); ++k) {
    push_edges(node_combine_[k]);
    if (node_dense_[k].has_value()) push_layer(*node_dense_[k]);
  }
  push_edges(output_combine_);
  push_layer(output_dense_);
  return out;
}

std::size_t InferenceEngine::shard_count(std::size_t n) const {
  // A shard below the kernels' own parallel grain, or below one register
  // tile of rows, costs more in fork-join than it saves.
  const std::size_t by_work =
      n * flops_per_row_ / nn::kernels::kParallelFlopThreshold;
  const std::size_t shards = std::min(
      {nn::kernels::max_threads(), n / nn::kernels::kTileRows, by_work});
  return std::max<std::size_t>(shards, 1);
}

// The one predict path. Rows split into contiguous shards of whole
// register tiles; each shard runs the full forward pass serially on its own
// scratch, so the batch costs one pool collective instead of one per GEMM.
// Kernel results depend only on a row's own inputs, so every output bit is
// the same for any shard count or schedule. One shard runs inline.
void InferenceEngine::run(const float* rows, std::size_t n, float* out,
                          bool probabilities) const {
  if (n == 0) return;
  const bool int8 = mode_ == EngineMode::kInt8;
  OBS_SPAN(int8 ? "serve.quantized.infer" : "serve.infer",
           {{"rows", std::to_string(n)}});
  const std::size_t want = shard_count(n);
  const std::size_t per =
      round_up((n + want - 1) / want, nn::kernels::kTileRows);
  const std::size_t shards = (n + per - 1) / per;
  if (scratch_.size() < shards) scratch_.resize(shards);

  struct Job {
    const float* rows;
    float* out;
    std::size_t n, per;
    bool probabilities;
  } job{rows, out, n, per, probabilities};
  // Two captures keep the std::function free of heap allocation.
  nn::kernels::parallel_for(shards, [this, &job](std::size_t i) {
    nn::kernels::ScopedThreadLimit serial(1);
    const std::size_t r0 = i * job.per;
    const std::size_t rn = std::min(job.per, job.n - r0);
    Scratch& s = scratch_[i];
    forward(s, job.rows + r0 * input_dim(), rn, nullptr);
    const nn::Tensor* result = &s.logits;
    if (job.probabilities) {
      nn::softmax(s.logits, s.probs);
      result = &s.probs;
    }
    std::memcpy(job.out + r0 * output_dim(), result->v.data(),
                rn * output_dim() * sizeof(float));
  });

  if (probabilities) {
    static const auto fp32_predictions =
        obs::Registry::global().counter("serve.predictions");
    static const auto int8_predictions =
        obs::Registry::global().counter("serve.quantized.predictions");
    (int8 ? int8_predictions : fp32_predictions).add(n);
  }
}

void InferenceEngine::predict_logits(const float* rows, std::size_t n,
                                     float* out) const {
  run(rows, n, out, /*probabilities=*/false);
}

void InferenceEngine::predict_batch(const float* rows, std::size_t n,
                                    float* out) const {
  run(rows, n, out, /*probabilities=*/true);
}

InferenceEngine load_engine(const std::string& path, EngineMode mode) {
  return InferenceEngine(nn::load_artifact_file(path), mode);
}

nn::ModelArtifact quantize_artifact(const nn::ModelArtifact& artifact,
                                    const float* rows, std::size_t n) {
  return InferenceEngine(artifact).quantized_artifact(rows, n);
}

}  // namespace agebo::serve

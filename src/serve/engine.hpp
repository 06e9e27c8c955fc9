// Batched inference engine over a frozen model artifact (DESIGN.md §12–13).
//
// Replays the frozen graph through the blocked GEMM kernels with the same
// fused bias/activation epilogues the trainer uses — and through *exactly*
// the same kernel entry points in the same order, so engine logits are
// bitwise identical to GraphNet::forward on the source network (the export
// round-trip test asserts this on sampled search-space architectures).
//
// Execution modes, selected at load/freeze time:
//   kFp32 — the bitwise-faithful fp32 path above.
//   kInt8 — the quantized fast path (DESIGN.md §13): every GEMM in the
//     frozen graph — dense nodes, skip projections, and the readout — runs
//     through kernels::gemm_u8s8 (u8 activations x s8 weights -> s32,
//     fused dequant+bias+activation epilogue, weights pre-packed at build)
//     using the artifact's v3 quant section; identity nodes and the
//     elementwise combine-sum/ReLU/softmax stages stay in fp32, which
//     keeps the int8 mode exact w.r.t. its own quantization grid
//     (run-to-run deterministic and identical across dispatched ISAs)
//     while quantizing all the arithmetic that scales with layer width.
//     Requires artifact.has_quant().
//
// Inference-only by construction: no Rng, no gradient buffers, no cached
// inputs for backprop. Every per-call buffer (node outputs, pre-activation
// staging, combine scratch, logits, probabilities) lives in a persistent
// per-shard Scratch reused across calls, so steady-state predict_batch
// performs zero allocations.
//
// Threading: parallelism is over rows, not inside GEMMs. The search
// space's layers are too narrow to split, so predict_batch/predict_logits
// cut the batch into contiguous shards of whole register tiles and make
// one kernels::parallel_for over them — one pool collective per batch.
// Each shard runs the whole forward pass (fp32 or int8) serially under
// ScopedThreadLimit(1) on its own Scratch, indexed by shard rather than by
// thread. The shard count is derived, never configured:
//   min(max_threads(), rows / kTileRows,
//       rows * flops_per_row / kParallelFlopThreshold),
// so small batches and small genomes stay on one shard, run inline. Every
// kernel result depends only on its own row, so outputs are bitwise
// identical for any shard count, thread budget or schedule.
// quantized_artifact calibrates as a single shard on the calling thread,
// so its ranges cover all calibration rows.
//
// `const` on the predict entry points is logical — the scratch is mutable
// — so concurrent calls on one engine must be serialized (separate
// engines may run concurrently); the MicroBatcher (batcher.hpp) is the
// intended high-throughput front end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/predictor.hpp"
#include "nn/activation.hpp"
#include "nn/kernels/gemm_s8.hpp"
#include "nn/quant.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"

namespace agebo::serve {

enum class EngineMode { kFp32, kInt8 };

class InferenceEngine final : public Predictor {
 public:
  /// Builds the frozen layer stack from `artifact`. Throws
  /// std::runtime_error when the parameter blocks do not match the
  /// architecture (count or shape), or when kInt8 is requested but the
  /// artifact has no (or an incomplete) v3 quant section.
  explicit InferenceEngine(nn::ModelArtifact artifact,
                           EngineMode mode = EngineMode::kFp32);

  EngineMode mode() const { return mode_; }

  std::size_t input_dim() const override { return artifact_.spec.input_dim; }
  std::size_t output_dim() const override { return artifact_.spec.output_dim; }

  /// Softmax class probabilities for n row-major rows into out
  /// (n x output_dim).
  void predict_batch(const float* rows, std::size_t n,
                     float* out) const override;

  /// Raw logits (pre-softmax), n x output_dim. In kFp32 mode these are
  /// bitwise identical to GraphNet::forward on the network the artifact
  /// was frozen from; in kInt8 mode they are the deterministic quantized
  /// approximation.
  void predict_logits(const float* rows, std::size_t n, float* out) const;

  /// Calibrate on `n` sample rows (fp32 forward recording each quantizable
  /// GEMM's input range) and return a copy of the artifact with a
  /// populated v3 quant section: symmetric per-output-column weight
  /// quantization, per-tensor affine activation scales. The result loads
  /// into an int8-mode engine. Must be called on a kFp32 engine with
  /// n >= 1.
  nn::ModelArtifact quantized_artifact(const float* rows, std::size_t n) const;

  const nn::GraphSpec& spec() const { return artifact_.spec; }
  const nn::ModelArtifact& artifact() const { return artifact_; }
  std::size_t num_params() const;

 private:
  /// One frozen dense op: weights (in x out) and optional bias.
  struct Linear {
    nn::Tensor w;
    std::vector<float> b;  // empty = no bias (skip projections)
  };
  /// The int8 image of a Linear, precomputed for kernels::gemm_u8s8:
  /// quantized weights plus the fused-epilogue vectors.
  struct QuantLinear {
    std::size_t rows = 0;
    std::size_t cols = 0;
    float inv_scale = 1.0f;  // 1 / input act scale
    std::int32_t zp = 0;
    std::vector<std::int8_t> wq;       // rows x cols
    std::vector<float> dq_scale;       // per column
    std::vector<std::int32_t> comp;    // per column
    /// B panels packed once at build for the dispatched int8 tier, so
    /// predict never re-packs the constant weights.
    nn::kernels::PackedWeightsS8 packed;
  };
  struct Edge {
    std::size_t src;
    std::optional<Linear> proj;  // nullopt = identity map (widths match)
    std::optional<QuantLinear> qproj;  // int8 image; kInt8 mode only
  };
  struct Combine {
    std::vector<Edge> edges;
    bool active() const { return !edges.empty(); }
  };

  /// One shard's forward-pass buffers: node outputs, pre-activation
  /// staging, combine scratch, logits and probabilities. Capacity-reusing,
  /// so a steady-state predict allocates nothing.
  struct Scratch {
    std::vector<nn::Tensor> outs;
    std::vector<nn::Tensor> pre_act;
    nn::Tensor combine_sum;
    nn::Tensor combine_buf;
    nn::Tensor logits;
    nn::Tensor probs;
  };
  /// Calibration record: each quantizable GEMM's input [min, max], in
  /// quantizable-op order.
  using Ranges = std::vector<std::pair<float, float>>;

  void build_quantized();
  void gemm_op(const Linear& op, const std::optional<QuantLinear>& q,
               nn::Activation act, const nn::Tensor& in, nn::Tensor& out,
               nn::Tensor* pre_act, bool accumulate, Ranges* calib) const;
  const nn::Tensor& combine_forward(Scratch& s, const Combine& c,
                                    const nn::Tensor& base,
                                    Ranges* calib) const;
  /// Full forward pass over n rows into s.logits; records GEMM input
  /// ranges into `calib` when non-null (fp32 only).
  void forward(Scratch& s, const float* rows, std::size_t n,
               Ranges* calib) const;
  std::size_t shard_count(std::size_t n) const;
  void run(const float* rows, std::size_t n, float* out,
           bool probabilities) const;

  nn::ModelArtifact artifact_;  // kept for spec/metadata introspection
  EngineMode mode_ = EngineMode::kFp32;
  std::vector<std::size_t> dims_;
  std::vector<std::optional<Linear>> node_dense_;
  std::vector<Combine> node_combine_;
  Combine output_combine_;
  Linear output_dense_;
  std::vector<std::optional<QuantLinear>> node_quant_;
  std::optional<QuantLinear> output_quant_;
  std::size_t flops_per_row_ = 0;  // all GEMMs of one row's forward pass

  // One Scratch per shard, indexed by shard (never by thread), grown on
  // the calling thread before the shards fan out. Mutable: see the header
  // comment on const semantics.
  mutable std::vector<Scratch> scratch_;
};

/// Load an artifact file and build an engine for it.
InferenceEngine load_engine(const std::string& path,
                            EngineMode mode = EngineMode::kFp32);

/// Calibrate + quantize in one step: artifact in, v3 artifact out.
nn::ModelArtifact quantize_artifact(const nn::ModelArtifact& artifact,
                                    const float* rows, std::size_t n);

}  // namespace agebo::serve

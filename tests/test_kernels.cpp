// Differential and determinism tests for the blocked SIMD kernel layer
// (src/nn/kernels): blocked vs naive GEMM across edge shapes, fused
// epilogues vs the unfused reference pipeline, workspace reuse, and
// bit-identical training under kernel threading. Run via `ctest -L
// kernels`.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/graph_net.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/pool.hpp"
#include "nn/kernels/workspace.hpp"
#include "nn/tensor.hpp"
#include "nn/trainer.hpp"
#include "obs/span.hpp"

namespace {

using namespace agebo;
using namespace agebo::nn;

Tensor random_tensor(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t(r, c);
  for (auto& v : t.v) v = static_cast<float>(rng.normal());
  return t;
}

void expect_close(const Tensor& got, const Tensor& want, double rel = 1e-4) {
  ASSERT_TRUE(got.same_shape(want))
      << got.rows << "x" << got.cols << " vs " << want.rows << "x" << want.cols;
  for (std::size_t i = 0; i < want.v.size(); ++i) {
    const double tol = rel * std::max(1.0, std::abs(double(want.v[i])));
    ASSERT_NEAR(got.v[i], want.v[i], tol) << "at flat index " << i;
  }
}

struct Shape {
  std::size_t m, k, n;
};

// 1x1, tall-skinny, wide, non-multiple-of-tile dims, zero rows, a K large
// enough to span multiple KC blocks, plus the microkernel tail cases:
// k=1 (single rank-1 update), n smaller than any NR strip, and m not a
// multiple of the MR row strip.
const Shape kEdgeShapes[] = {
    {1, 1, 1},     {257, 3, 130}, {3, 300, 2},  {129, 65, 33},
    {0, 5, 7},     {5, 0, 7},     {64, 64, 64}, {33, 600, 47},
    {6, 8, 256},   {130, 129, 1}, {1, 513, 16},
    {5, 1, 9},     {64, 32, 3},   {61, 40, 5},  {9, 1, 64},
    {2, 7, 1},
};

TEST(Kernels, BlockedMatmulMatchesNaive) {
  Rng rng(11);
  for (const auto& s : kEdgeShapes) {
    Tensor a = random_tensor(s.m, s.k, rng);
    Tensor b = random_tensor(s.k, s.n, rng);
    Tensor ref, out;
    matmul_naive(a, b, ref);
    matmul(a, b, out);
    expect_close(out, ref);
  }
}

TEST(Kernels, BlockedMatmulBtMatchesNaive) {
  Rng rng(12);
  for (const auto& s : kEdgeShapes) {
    Tensor a = random_tensor(s.m, s.k, rng);
    Tensor b = random_tensor(s.n, s.k, rng);  // out = a b^T: b is n x k
    Tensor ref, out;
    matmul_bt_naive(a, b, ref);
    matmul_bt(a, b, out);
    expect_close(out, ref);
  }
}

TEST(Kernels, BlockedMatmulAtMatchesNaive) {
  Rng rng(13);
  for (const auto& s : kEdgeShapes) {
    Tensor a = random_tensor(s.k, s.m, rng);  // out = a^T b: a is k x m
    Tensor b = random_tensor(s.k, s.n, rng);
    Tensor ref, out;
    matmul_at_naive(a, b, ref);
    matmul_at(a, b, out);
    expect_close(out, ref);
  }
}

TEST(Kernels, ZeroRowsInsideOperandsAgree) {
  // The naive kernel's sparsity skip must not change blocked results.
  Rng rng(14);
  Tensor a = random_tensor(70, 40, rng);
  for (std::size_t j = 0; j < a.cols; ++j) {
    a.at(3, j) = 0.0f;   // whole zero row
    a.at(69, j) = 0.0f;
  }
  for (std::size_t i = 0; i < a.rows; ++i) a.at(i, 7) = 0.0f;  // zero column
  Tensor b = random_tensor(40, 23, rng);
  Tensor ref, out;
  matmul_naive(a, b, ref);
  matmul(a, b, out);
  expect_close(out, ref);
}

TEST(Kernels, OutputBufferReusedWithoutReallocation) {
  Rng rng(15);
  Tensor a = random_tensor(50, 30, rng);
  Tensor b = random_tensor(30, 20, rng);
  Tensor out;
  matmul(a, b, out);
  const float* data = out.v.data();
  const std::size_t cap = out.v.capacity();
  for (int i = 0; i < 5; ++i) matmul(a, b, out);
  EXPECT_EQ(out.v.data(), data);  // resize-without-memset fast path
  EXPECT_EQ(out.v.capacity(), cap);
}

TEST(Kernels, AccumulatingGemmAddsIntoOutput) {
  Rng rng(16);
  Tensor a = random_tensor(37, 19, rng);
  Tensor b = random_tensor(19, 41, rng);
  Tensor base = random_tensor(37, 41, rng);

  Tensor want;
  matmul_naive(a, b, want);
  add_inplace(want, base);

  Tensor got = base;
  kernels::gemm(a.rows, b.cols, a.cols, a.v.data(), a.cols, b.v.data(), b.cols,
                got.v.data(), got.cols, /*accumulate=*/true);
  expect_close(got, want);
}

TEST(Kernels, FusedBiasActivationEpilogueMatchesUnfusedPipeline) {
  Rng rng(17);
  for (int ai = 0; ai < kNumActivations; ++ai) {
    const Activation act = activation_from_index(ai);
    Rng init_rng(21);
    DenseLayer layer(33, 29, /*use_bias=*/true, init_rng);
    Tensor x = random_tensor(65, 33, rng);

    // Reference: unfused naive pipeline.
    Tensor z_ref;
    matmul_naive(x, layer.weights(), z_ref);
    add_bias(z_ref, layer.bias());
    Tensor out_ref;
    apply_activation(act, z_ref, out_ref);

    Tensor z_pre, out;
    layer.forward_act(x, act, z_pre, out);
    expect_close(z_pre, z_ref);
    expect_close(out, out_ref);
  }
}

TEST(Kernels, ForwardAddAccumulatesProjection) {
  Rng rng(18);
  Rng init_rng(22);
  DenseLayer proj(24, 40, /*use_bias=*/false, init_rng);
  Tensor x = random_tensor(31, 24, rng);
  Tensor sum = random_tensor(31, 40, rng);

  Tensor prod, want = sum;
  matmul_naive(x, proj.weights(), prod);
  add_inplace(want, prod);

  Tensor got = sum;
  proj.forward_add(x, got);
  expect_close(got, want);
}

TEST(Kernels, FusedActGradMatchesUnfused) {
  Rng rng(19);
  for (int ai = 0; ai < kNumActivations; ++ai) {
    const Activation act = activation_from_index(ai);
    Tensor z = random_tensor(43, 21, rng);
    Tensor g = random_tensor(43, 21, rng);

    Tensor want = g;
    apply_activation_grad(act, z, want);

    Tensor got(43, 21);
    kernels::act_grad_mul(act, z.v.data(), g.v.data(), got.v.data(),
                          got.v.size());
    expect_close(got, want, 1e-6);
  }
}

TEST(Kernels, BackwardGradientsMatchNaivePipeline) {
  Rng rng(20);
  Rng init_a(31), init_b(31);
  DenseLayer fused(26, 17, /*use_bias=*/true, init_a);
  DenseLayer check(26, 17, /*use_bias=*/true, init_b);
  Tensor x = random_tensor(39, 26, rng);
  Tensor dz = random_tensor(39, 17, rng);

  Tensor z, dx;
  fused.forward(x, z);
  fused.backward(dz, dx);

  // Reference gradients from the naive kernels.
  Tensor gw_ref;
  matmul_at_naive(x, dz, gw_ref);
  Tensor dx_ref;
  matmul_bt_naive(dz, check.weights(), dx_ref);

  auto params = fused.params();
  const auto& gw = *params[0].grads;
  ASSERT_EQ(gw.size(), gw_ref.v.size());
  for (std::size_t i = 0; i < gw.size(); ++i) {
    ASSERT_NEAR(gw[i], gw_ref.v[i],
                1e-4 * std::max(1.0, std::abs(double(gw_ref.v[i]))));
  }
  expect_close(dx, dx_ref);
}

TEST(Kernels, WorkspaceReusesBlocksAcrossScopes) {
  auto& ws = kernels::Workspace::tls();
  ws.clear();
  float* first = nullptr;
  {
    kernels::Workspace::Scope scope(ws);
    first = scope.alloc(1000);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % 64, 0u);
    float* second = scope.alloc(500);
    EXPECT_NE(first, second);
  }
  const std::size_t cap = ws.capacity();
  {
    kernels::Workspace::Scope scope(ws);
    // Same request after release: same memory, no growth.
    EXPECT_EQ(scope.alloc(1000), first);
  }
  EXPECT_EQ(ws.capacity(), cap);
}

TEST(Kernels, ParallelForCoversAllChunksOnce) {
  kernels::set_max_threads(4);
  std::vector<int> hits(97, 0);
  kernels::parallel_for(hits.size(),
                        [&](std::size_t c) { hits[c] += 1; });
  kernels::set_max_threads(0);
  for (std::size_t c = 0; c < hits.size(); ++c) EXPECT_EQ(hits[c], 1);
}

// Pool workers trace on "kernels.pool-<i>" lanes, not anonymous
// "thread-<n>" ones. Chunks the calling thread claims keep its own lane.
TEST(Kernels, PoolWorkersTraceOnNamedLanes) {
  const std::string caller = obs::thread_lane();
  std::mutex mu;
  std::set<std::string> lanes;
  kernels::set_max_threads(4);
  kernels::parallel_for(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    std::lock_guard<std::mutex> lock(mu);
    lanes.insert(obs::thread_lane());
  });
  kernels::set_max_threads(0);
  for (const auto& lane : lanes) {
    if (lane != caller) EXPECT_EQ(lane.rfind("kernels.pool-", 0), 0u) << lane;
  }
}

TEST(Kernels, ScopedThreadLimitForcesInline) {
  kernels::ScopedThreadLimit one(1);
  EXPECT_EQ(kernels::max_threads(), 1u);
  std::vector<int> hits(8, 0);
  kernels::parallel_for(hits.size(), [&](std::size_t c) { hits[c] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Kernels, ThreadedGemmBitIdenticalToSerial) {
  // Shapes big enough to clear the parallelization threshold.
  Rng rng(23);
  Tensor a = random_tensor(512, 300, rng);
  Tensor b = random_tensor(300, 256, rng);

  Tensor serial_out;
  {
    kernels::ScopedThreadLimit one(1);
    matmul(a, b, serial_out);
  }
  Tensor threaded_out;
  {
    kernels::ScopedThreadLimit many(8);
    matmul(a, b, threaded_out);
  }
  ASSERT_TRUE(serial_out.same_shape(threaded_out));
  EXPECT_EQ(serial_out.v, threaded_out.v);  // bitwise
}

TEST(Kernels, TrainingDeterministicWithKernelThreadingEnabled) {
  // Two runs with the same seed must produce bit-identical training losses
  // even with the kernel pool engaged (disjoint-row partitioning).
  data::SyntheticSpec spec;
  spec.n_rows = 640;
  spec.n_features = 192;
  spec.n_classes = 5;
  auto ds = data::make_classification(spec);
  Rng split_rng(5);
  auto splits = data::split(ds, {}, split_rng);

  GraphSpec gspec;
  gspec.input_dim = ds.n_features;
  gspec.output_dim = ds.n_classes;
  NodeSpec wide;
  wide.units = 256;
  wide.act = Activation::kRelu;
  gspec.nodes = {wide, wide};

  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 256;
  cfg.seed = 99;

  kernels::set_max_threads(8);
  auto run = [&] {
    Rng net_rng(3);
    GraphNet net(gspec, net_rng);
    return nn::train(net, splits.train, splits.valid, cfg);
  };
  const auto r1 = run();
  const auto r2 = run();
  kernels::set_max_threads(0);

  ASSERT_EQ(r1.epochs.size(), r2.epochs.size());
  for (std::size_t e = 0; e < r1.epochs.size(); ++e) {
    EXPECT_EQ(r1.epochs[e].train_loss, r2.epochs[e].train_loss) << "epoch " << e;
    EXPECT_EQ(r1.epochs[e].valid_accuracy, r2.epochs[e].valid_accuracy);
  }
}

TEST(Kernels, GraphNetLossMatchesPreKernelReference) {
  // End-to-end spot check: fused forward == unfused math on a skip-heavy
  // net (projections, identity nodes, output skips).
  GraphSpec gspec;
  gspec.input_dim = 20;
  gspec.output_dim = 4;
  NodeSpec n1;
  n1.units = 48;
  n1.act = Activation::kSwish;
  NodeSpec n2;
  n2.is_identity = true;
  n2.skips = {0};
  NodeSpec n3;
  n3.units = 16;
  n3.act = Activation::kTanh;
  n3.skips = {0, 1};
  gspec.nodes = {n1, n2, n3};
  gspec.output_skips = {0, 2};

  Rng net_rng(8);
  GraphNet net(gspec, net_rng);
  Rng data_rng(9);
  Tensor x = random_tensor(32, 20, data_rng);

  const Tensor& logits = net.forward(x);
  ASSERT_EQ(logits.rows, 32u);
  ASSERT_EQ(logits.cols, 4u);

  // Forward twice: caches must be reused, result identical.
  Tensor first = logits;
  const Tensor& again = net.forward(x);
  EXPECT_EQ(first.v, again.v);
}

}  // namespace

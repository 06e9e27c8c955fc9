// Serving-path tests (DESIGN.md §12): export/load round trip is bitwise
// identical to the in-memory network across sampled search-space
// architectures, corrupted or truncated artifacts fail load with a clear
// error, and the micro-batcher preserves results while honoring its
// latency budget and coalescing contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nas/search_space.hpp"
#include "nn/graph_net.hpp"
#include "nn/kernels/pool.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"
#include "obs/obs.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"

namespace agebo {
namespace {

std::vector<float> random_rows(std::size_t n, std::size_t d, Rng& rng) {
  std::vector<float> rows(n * d);
  for (auto& v : rows) v = static_cast<float>(rng.normal());
  return rows;
}

std::string temp_path(const char* stem) {
  return std::string(::testing::TempDir()) + stem;
}

// The tentpole contract: freeze -> save -> load -> engine produces logits
// bitwise identical to GraphNet::forward, across randomly sampled
// search-space architectures (identity nodes, skips, projections and all).
TEST(ServeRoundTrip, BitwiseIdenticalAcrossSearchSpace) {
  nas::SearchSpace space;
  Rng rng(17);
  const std::size_t d = 54, c = 7, n = 33;
  for (int trial = 0; trial < 8; ++trial) {
    const auto genome = space.random(rng);
    const auto spec = space.to_graph_spec(genome, d, c);
    nn::GraphNet net(spec, rng);

    const std::string path =
        temp_path(("serve_rt_" + std::to_string(trial) + ".txt").c_str());
    nn::save_artifact_file(nn::freeze_graphnet(net), path);
    serve::InferenceEngine engine = serve::load_engine(path);
    ASSERT_EQ(engine.input_dim(), d);
    ASSERT_EQ(engine.output_dim(), c);
    ASSERT_EQ(engine.num_params(), net.num_params());

    const auto rows = random_rows(n, d, rng);
    nn::Tensor x(n, d);
    std::memcpy(x.v.data(), rows.data(), rows.size() * sizeof(float));
    const nn::Tensor& want = net.forward(x);

    std::vector<float> got(n * c);
    engine.predict_logits(rows.data(), n, got.data());
    ASSERT_EQ(0, std::memcmp(want.v.data(), got.data(),
                             got.size() * sizeof(float)))
        << "engine logits differ from GraphNet::forward for genome "
        << nas::SearchSpace::key(genome);
    std::remove(path.c_str());
  }
}

TEST(ServeRoundTrip, ProbabilitiesMatchSoftmaxOfLogits) {
  Rng rng(3);
  nn::GraphSpec spec;
  spec.input_dim = 10;
  spec.output_dim = 4;
  nn::NodeSpec node;
  node.units = 16;
  spec.nodes = {node, node};
  nn::GraphNet net(spec, rng);
  serve::InferenceEngine engine(nn::freeze_graphnet(net));

  const std::size_t n = 9;
  const auto rows = random_rows(n, spec.input_dim, rng);
  std::vector<float> logits(n * spec.output_dim);
  std::vector<float> probs(n * spec.output_dim);
  engine.predict_logits(rows.data(), n, logits.data());
  engine.predict_batch(rows.data(), n, probs.data());

  nn::Tensor lt(n, spec.output_dim), pt;
  std::memcpy(lt.v.data(), logits.data(), logits.size() * sizeof(float));
  nn::softmax(lt, pt);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_FLOAT_EQ(pt.v[i], probs[i]);
  }
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t j = 0; j < spec.output_dim; ++j) {
      sum += probs[r * spec.output_dim + j];
    }
    EXPECT_NEAR(1.0, sum, 1e-5);
  }
}

TEST(ServeRoundTrip, MetadataSurvivesSaveLoad) {
  Rng rng(5);
  nn::GraphSpec spec;
  spec.input_dim = 6;
  spec.output_dim = 3;
  nn::NodeSpec node;
  node.units = 8;
  spec.nodes = {node};
  nn::GraphNet net(spec, rng);

  auto artifact =
      nn::freeze_graphnet(net, {{"dataset", "covertype"}, {"epochs", "7"}});
  const std::string path = temp_path("serve_meta.txt");
  nn::save_artifact_file(artifact, path);
  serve::InferenceEngine engine = serve::load_engine(path);
  EXPECT_EQ("covertype", engine.artifact().meta("dataset"));
  EXPECT_EQ("7", engine.artifact().meta("epochs"));
  std::remove(path.c_str());
}

class ServeArtifactErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    nn::GraphSpec spec;
    spec.input_dim = 8;
    spec.output_dim = 3;
    nn::NodeSpec node;
    node.units = 12;
    spec.nodes = {node, node};
    nn::GraphNet net(spec, rng);
    path_ = temp_path("serve_bad.txt");
    nn::save_artifact_file(nn::freeze_graphnet(net), path_);
    std::ifstream is(path_);
    std::ostringstream buf;
    buf << is.rdbuf();
    good_ = buf.str();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write(const std::string& contents) {
    std::ofstream os(path_, std::ios::trunc);
    os << contents;
  }

  std::string path_;
  std::string good_;
};

TEST_F(ServeArtifactErrors, TruncatedArtifactFailsWithClearError) {
  write(good_.substr(0, good_.size() / 2));
  try {
    (void)serve::load_engine(path_);
    FAIL() << "truncated artifact loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << "unhelpful error: " << e.what();
  }
}

TEST_F(ServeArtifactErrors, CorruptedPayloadFailsChecksum) {
  // Flip one digit inside a parameter value; the checksum must catch it.
  std::string bad = good_;
  const auto pos = bad.find("params");
  ASSERT_NE(pos, std::string::npos);
  for (std::size_t i = pos; i < bad.size(); ++i) {
    if (bad[i] >= '1' && bad[i] <= '8') {
      bad[i] = static_cast<char>(bad[i] == '1' ? '2' : bad[i] - 1);
      break;
    }
  }
  write(bad);
  try {
    (void)serve::load_engine(path_);
    FAIL() << "corrupted artifact loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos)
        << "unhelpful error: " << e.what();
  }
}

TEST_F(ServeArtifactErrors, WrongHeaderRejected) {
  write("agebo-graphnet v9\nnonsense\n");
  EXPECT_THROW((void)serve::load_engine(path_), std::runtime_error);
}

TEST_F(ServeArtifactErrors, MissingFileRejected) {
  EXPECT_THROW((void)serve::load_engine(temp_path("serve_nonexistent.txt")),
               std::runtime_error);
}

class MicroBatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    nn::GraphSpec spec;
    spec.input_dim = 12;
    spec.output_dim = 5;
    nn::NodeSpec node;
    node.units = 24;
    spec.nodes = {node, node};
    nn::GraphNet net(spec, rng);
    engine_ = std::make_unique<serve::InferenceEngine>(nn::freeze_graphnet(net));
    rows_ = random_rows(kRows, spec.input_dim, rng);
    direct_.resize(kRows * spec.output_dim);
    engine_->predict_batch(rows_.data(), kRows, direct_.data());
  }

  static constexpr std::size_t kRows = 96;
  std::unique_ptr<serve::InferenceEngine> engine_;
  std::vector<float> rows_;
  std::vector<float> direct_;  // ground truth from the batched path
};

// Results through the batcher must be bitwise what the engine returns
// directly, regardless of how requests were coalesced.
TEST_F(MicroBatcherTest, ResultsMatchDirectBatchedPath) {
  serve::MicroBatcherConfig cfg;
  cfg.max_batch = 16;
  cfg.max_delay_ms = 0.5;
  serve::MicroBatcher batcher(*engine_, cfg);

  const std::size_t c = engine_->output_dim();
  std::vector<float> out(kRows * c);
  std::vector<std::thread> clients;
  std::atomic<std::size_t> next{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < kRows;
           i = next.fetch_add(1)) {
        batcher.predict_row(rows_.data() + i * engine_->input_dim(),
                            out.data() + i * c);
      }
    });
  }
  for (auto& cl : clients) cl.join();
  EXPECT_EQ(0, std::memcmp(direct_.data(), out.data(),
                           out.size() * sizeof(float)));
}

// A lone request must not wait (much) longer than the configured budget:
// the worker flushes a partial batch when the deadline expires.
TEST_F(MicroBatcherTest, LatencyBudgetFlushesPartialBatch) {
  serve::MicroBatcherConfig cfg;
  cfg.max_batch = 64;  // never filled by a single request
  cfg.max_delay_ms = 5.0;
  serve::MicroBatcher batcher(*engine_, cfg);

  std::vector<float> out(engine_->output_dim());
  const auto t0 = std::chrono::steady_clock::now();
  batcher.predict_row(rows_.data(), out.data());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // Generous ceiling: budget + scheduling slack. The point is that the
  // request is not stuck waiting for 63 peers that never arrive.
  EXPECT_LT(ms, 250.0);
  EXPECT_EQ(0, std::memcmp(direct_.data(), out.data(),
                           out.size() * sizeof(float)));
}

// Seeded bursty arrivals: clients released together must coalesce into
// shared batches rather than being served one by one.
TEST_F(MicroBatcherTest, BurstyArrivalsCoalesce) {
  auto& reg = obs::Registry::global();
  const auto batches0 = reg.counter("serve.batches").total();
  const auto requests0 = reg.counter("serve.requests").total();

  serve::MicroBatcherConfig cfg;
  cfg.max_batch = 32;
  cfg.max_delay_ms = 20.0;  // wide window so a burst lands in one batch
  serve::MicroBatcher batcher(*engine_, cfg);

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kWaves = 4;
  const std::size_t c = engine_->output_dim();
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t, wave] {
        const std::size_t i = (wave * kClients + t) % kRows;
        std::vector<float> out(c);
        batcher.predict_row(rows_.data() + i * engine_->input_dim(),
                            out.data());
        EXPECT_EQ(0, std::memcmp(direct_.data() + i * c, out.data(),
                                 c * sizeof(float)));
      });
    }
    for (auto& cl : clients) cl.join();
  }
  batcher.stop();

  const auto requests = reg.counter("serve.requests").total() - requests0;
  const auto batches = reg.counter("serve.batches").total() - batches0;
  EXPECT_EQ(requests, kClients * kWaves);
  // Perfect coalescing would be kWaves batches; anything at or under half
  // the request count proves multi-request batches formed.
  EXPECT_LE(batches * 2, requests);
}

TEST_F(MicroBatcherTest, PredictAfterStopThrows) {
  serve::MicroBatcher batcher(*engine_);
  std::vector<float> out(engine_->output_dim());
  batcher.predict_row(rows_.data(), out.data());
  batcher.stop();
  EXPECT_THROW(batcher.predict_row(rows_.data(), out.data()),
               std::runtime_error);
}

TEST_F(MicroBatcherTest, StopIsIdempotent) {
  serve::MicroBatcher batcher(*engine_);
  batcher.stop();
  batcher.stop();
}

// --- Row-sharded batch inference ------------------------------------------
// predict_batch/predict_logits split rows into shards that each run the
// whole forward pass serially; these gates hold the outputs to the
// row-by-row path bit for bit, for every thread budget and batch size.

// Restores the process-wide kernel budget when a test ends.
struct ThreadBudget {
  explicit ThreadBudget(std::size_t n) { nn::kernels::set_max_threads(n); }
  ~ThreadBudget() { nn::kernels::set_max_threads(0); }
};

// An fp32 engine and its calibrated int8 twin for one sampled genome, plus
// the source network (for GraphNet::forward references).
struct ShardedEngines {
  std::string key;
  std::unique_ptr<nn::GraphNet> net;
  std::unique_ptr<serve::InferenceEngine> fp32;
  std::unique_ptr<serve::InferenceEngine> int8;
};

constexpr std::size_t kShardD = 54;
constexpr std::size_t kShardC = 7;
constexpr std::size_t kShardMaxRows = 1000;

std::vector<ShardedEngines> sharded_engines(Rng& rng,
                                            const std::vector<float>& calib) {
  nas::SearchSpace space;
  std::vector<ShardedEngines> out;
  for (int trial = 0; trial < 5; ++trial) {
    const auto genome = space.random(rng);
    ShardedEngines e;
    e.key = nas::SearchSpace::key(genome);
    e.net = std::make_unique<nn::GraphNet>(
        space.to_graph_spec(genome, kShardD, kShardC), rng);
    const nn::ModelArtifact artifact = nn::freeze_graphnet(*e.net);
    e.fp32 = std::make_unique<serve::InferenceEngine>(artifact);
    e.int8 = std::make_unique<serve::InferenceEngine>(
        serve::quantize_artifact(artifact, calib.data(), 256),
        serve::EngineMode::kInt8);
    out.push_back(std::move(e));
  }
  return out;
}

// One row at a time: always a single shard, so this is the reference the
// sharded batches must reproduce.
std::vector<float> row_by_row(const serve::InferenceEngine& engine,
                              const std::vector<float>& rows, std::size_t n,
                              bool logits) {
  const std::size_t d = engine.input_dim();
  const std::size_t c = engine.output_dim();
  std::vector<float> out(n * c);
  for (std::size_t i = 0; i < n; ++i) {
    if (logits) {
      engine.predict_logits(rows.data() + i * d, 1, out.data() + i * c);
    } else {
      engine.predict_batch(rows.data() + i * d, 1, out.data() + i * c);
    }
  }
  return out;
}

TEST(ServeSharding, BatchesMatchRowByRowForEveryBudgetAndSize) {
  Rng rng(41);
  const auto rows = random_rows(kShardMaxRows, kShardD, rng);
  const auto engines = sharded_engines(rng, rows);
  ASSERT_GE(engines.size(), 4u);
  for (const auto& e : engines) {
    for (const serve::InferenceEngine* engine : {e.fp32.get(), e.int8.get()}) {
      const bool int8 = engine->mode() == serve::EngineMode::kInt8;
      const auto want_probs = row_by_row(*engine, rows, kShardMaxRows, false);
      const auto want_logits = row_by_row(*engine, rows, kShardMaxRows, true);
      for (std::size_t threads : {1u, 2u, 3u, 4u}) {
        ThreadBudget budget(threads);
        for (std::size_t n : {1u, 2u, 7u, 25u, 257u, 1000u}) {
          std::vector<float> probs(n * kShardC);
          std::vector<float> logits(n * kShardC);
          engine->predict_batch(rows.data(), n, probs.data());
          engine->predict_logits(rows.data(), n, logits.data());
          EXPECT_EQ(0, std::memcmp(want_probs.data(), probs.data(),
                                   probs.size() * sizeof(float)))
              << "predict_batch " << (int8 ? "int8" : "fp32") << " genome "
              << e.key << " threads=" << threads << " n=" << n;
          EXPECT_EQ(0, std::memcmp(want_logits.data(), logits.data(),
                                   logits.size() * sizeof(float)))
              << "predict_logits " << (int8 ? "int8" : "fp32") << " genome "
              << e.key << " threads=" << threads << " n=" << n;
        }
      }
    }
  }
}

TEST(ServeSharding, Fp32LogitsMatchGraphNetForwardAcrossBudgets) {
  Rng rng(43);
  const std::size_t n = 257;
  const auto rows = random_rows(kShardMaxRows, kShardD, rng);
  const auto engines = sharded_engines(rng, rows);
  nn::Tensor x(n, kShardD);
  std::memcpy(x.v.data(), rows.data(), n * kShardD * sizeof(float));
  for (const auto& e : engines) {
    for (std::size_t threads : {1u, 2u, 4u}) {
      ThreadBudget budget(threads);
      const nn::Tensor& want = e.net->forward(x);
      std::vector<float> got(n * kShardC);
      e.fp32->predict_logits(rows.data(), n, got.data());
      EXPECT_EQ(0, std::memcmp(want.v.data(), got.data(),
                               got.size() * sizeof(float)))
          << "genome " << e.key << " threads=" << threads;
    }
  }
}

// Separate engines on separate threads share only the kernel pool, whose
// collectives serialize; each keeps its own shard scratch.
TEST(ServeSharding, ConcurrentEnginesStayBitwiseIdentical) {
  Rng rng(47);
  const std::size_t n = 257;
  const auto rows = random_rows(kShardMaxRows, kShardD, rng);
  const auto engines = sharded_engines(rng, rows);
  const serve::InferenceEngine* pair[] = {engines[0].fp32.get(),
                                          engines[1].int8.get()};
  std::vector<float> want[2];
  for (int t = 0; t < 2; ++t) {
    want[t].resize(n * kShardC);
    pair[t]->predict_batch(rows.data(), n, want[t].data());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      std::vector<float> got(n * kShardC);
      for (int iter = 0; iter < 40; ++iter) {
        pair[t]->predict_batch(rows.data(), n, got.data());
        if (std::memcmp(want[t].data(), got.data(),
                        got.size() * sizeof(float)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace agebo

// Decentralized-BO tests (DESIGN.md §15): lock-free MPSC queue semantics
// and cross-thread stress (race-checked under TSan in CI), shard
// determinism, the shards=1 ≡ centralized byte-for-byte guarantee, gossip
// merge bookkeeping, the refit cache's bit-exactness, and sharded-optimizer
// checkpointing — standalone and through the svc checkpoint path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bo/mpsc_queue.hpp"
#include "bo/optimizer.hpp"
#include "bo/sharded_optimizer.hpp"
#include "common/rng.hpp"
#include "core/history_io.hpp"
#include "core/search.hpp"
#include "core/variants.hpp"
#include "eval/surrogate.hpp"
#include "exec/sim_executor.hpp"
#include "nas/search_space.hpp"
#include "svc/registry.hpp"

namespace {

using namespace agebo;

double toy_objective(const bo::Point& p) {
  double s = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) s += p[i] * 1e-3;
  return 0.5 + 0.25 * (s - static_cast<long>(s));
}

// --- MpscQueue ------------------------------------------------------------

TEST(MpscQueue, DrainReturnsFifoOrder) {
  bo::MpscQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  EXPECT_EQ(q.approx_size(), 100u);
  const std::vector<int> out = q.drain();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(q.approx_size(), 0u);
  EXPECT_TRUE(q.drain().empty());
}

TEST(MpscQueue, DrainInterleavesWithPushes) {
  bo::MpscQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.drain(), (std::vector<int>{1, 2}));
  q.push(3);
  EXPECT_EQ(q.drain(), (std::vector<int>{3}));
}

TEST(MpscQueue, DiscardReleasesUndrainedNodes) {
  // Shutdown path: the destructor asserts the queue is empty (lost tells are
  // a bug, not cleanup), so an aborting owner must discard() first. Also
  // exercised for leak checkers (ASan in CI): discard frees every node.
  bo::MpscQueue<std::string> q;
  q.push("left");
  q.push("behind");
  EXPECT_EQ(q.discard(), 2u);
  EXPECT_EQ(q.approx_size(), 0u);
  EXPECT_TRUE(q.drain().empty());
}

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AGEBO_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define AGEBO_TSAN 1
#endif

// Death tests fork, which TSan's runtime does not tolerate; the assert
// itself only fires in !NDEBUG builds.
#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG) && !defined(AGEBO_TSAN)
TEST(MpscQueueDeathTest, DestructionWithBacklogAsserts) {
  EXPECT_DEATH(
      {
        bo::MpscQueue<int> q;
        q.push(7);
      },
      "undrained");
}
#endif

// Cross-thread contract: push from many threads, drain from one. The
// assertions prove no item is lost or duplicated and that each producer's
// own items stay in order; TSan (CI's -DAGEBO_SANITIZE=thread job) proves
// the CAS publication is race-free.
TEST(MpscQueue, ConcurrentProducersLoseNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 5000;
  bo::MpscQueue<std::size_t> q;
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &go, p] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        q.push(p * kPerProducer + i);
      }
    });
  }
  go.store(true, std::memory_order_release);

  std::vector<std::size_t> next_expected(kProducers, 0);
  std::size_t received = 0;
  while (received < kProducers * kPerProducer) {
    for (const std::size_t item : q.drain()) {
      const std::size_t p = item / kPerProducer;
      const std::size_t i = item % kPerProducer;
      ASSERT_LT(p, kProducers);
      // FIFO per producer: items from one thread arrive in push order.
      ASSERT_EQ(i, next_expected[p]) << "producer " << p;
      ++next_expected[p];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(q.drain().empty());
}

// --- Refit cache (satellite: skip redundant per-ask refits) ---------------

TEST(RefitCache, CachedAsksAreBitIdentical) {
  bo::ParamSpace space = bo::ParamSpace::paper_space();
  bo::BoConfig with = {};
  with.n_initial_random = 4;
  with.n_candidates = 32;
  with.n_trees = 6;
  with.seed = 5;
  with.refit_cache = true;
  bo::BoConfig without = with;
  without.refit_cache = false;

  bo::AskTellOptimizer a(space, with);
  bo::AskTellOptimizer b(space, without);
  Rng rng(77);
  for (std::size_t round = 0; round < 8; ++round) {
    // Batched asks exercise both the leading (cacheable) fit and the liar
    // refits that must invalidate the cache.
    const auto pa = a.ask(2);
    const auto pb = b.ask(2);
    ASSERT_EQ(pa, pb) << "round " << round;
    std::vector<double> ys;
    for (const auto& p : pa) ys.push_back(toy_objective(p));
    a.tell(pa, ys);
    b.tell(pb, ys);
    // A second ask with an unchanged tell log hits the cache in `a` and
    // refits from scratch in `b`; the points must still match exactly.
    const auto qa = a.ask(1);
    const auto qb = b.ask(1);
    ASSERT_EQ(qa, qb) << "round " << round;
    a.tell(qa, {toy_objective(qa[0])});
    b.tell(qb, {toy_objective(qb[0])});
  }
}

// --- Shard determinism and gossip -----------------------------------------

bo::ShardedBoConfig small_sharded_config(std::size_t shards,
                                         std::size_t gossip_every) {
  bo::ShardedBoConfig cfg;
  cfg.shards = shards;
  cfg.gossip_every = gossip_every;
  cfg.gossip_fanout = 2;
  cfg.bo.n_initial_random = 4;
  cfg.bo.n_candidates = 32;
  cfg.bo.n_trees = 6;
  cfg.bo.seed = 11;
  cfg.bo.refit = bo::RefitMode::kIncremental;
  cfg.bo.batch = bo::BatchMode::kQUcb;
  return cfg;
}

/// Drive `rounds` enqueue+ask round trips over all shards, returning every
/// asked point in order.
std::vector<bo::Point> drive(bo::ShardedBo& sharded, std::size_t rounds) {
  const std::size_t S = sharded.shards();
  std::vector<bo::Point> asked;
  std::vector<bo::Point> pending(S);
  for (std::size_t s = 0; s < S; ++s) pending[s] = sharded.ask(s, 1).at(0);
  for (std::size_t e = 0; e < rounds; ++e) {
    const std::size_t s = e % S;
    sharded.enqueue_tell(s, pending[s], toy_objective(pending[s]));
    pending[s] = sharded.ask(s, 1).at(0);
    asked.push_back(pending[s]);
  }
  return asked;
}

TEST(ShardedBo, SameSeedSameScheduleIsDeterministic) {
  bo::ParamSpace space = bo::ParamSpace::paper_space();
  bo::ShardedBo a(space, small_sharded_config(4, 3));
  bo::ShardedBo b(space, small_sharded_config(4, 3));
  EXPECT_EQ(drive(a, 60), drive(b, 60));
  for (std::size_t s = 0; s < a.shards(); ++s) {
    EXPECT_EQ(a.n_observed(s), b.n_observed(s)) << "shard " << s;
    EXPECT_EQ(a.n_local(s), b.n_local(s)) << "shard " << s;
  }
}

TEST(ShardedBo, ShardsDivergeFromEachOther) {
  // Different shards carry different derived seeds: their very first
  // (random-phase) asks must already differ, or "decentralized" would just
  // be N copies of one trajectory.
  bo::ParamSpace space = bo::ParamSpace::paper_space();
  bo::ShardedBo sharded(space, small_sharded_config(2, 0));
  EXPECT_NE(sharded.ask(0, 1), sharded.ask(1, 1));
}

TEST(ShardedBo, GossipMergesPeerDeltasOnce) {
  bo::ParamSpace space = bo::ParamSpace::paper_space();
  bo::ShardedBoConfig cfg = small_sharded_config(2, 2);
  cfg.gossip_fanout = 1;
  bo::ShardedBo sharded(space, cfg);
  Rng rng(3);

  // Shard 0 learns 4 results of its own; its only peer has nothing yet.
  for (int i = 0; i < 4; ++i) {
    sharded.enqueue_tell(0, space.sample(rng), 0.5);
  }
  sharded.drain(0);
  EXPECT_EQ(sharded.n_local(0), 4u);
  EXPECT_EQ(sharded.n_observed(0), 4u);  // nothing to merge from shard 1

  // Shard 1 crosses the gossip threshold with 2 local tells and pulls the
  // peer's 4-tell delta.
  for (int i = 0; i < 2; ++i) {
    sharded.enqueue_tell(1, space.sample(rng), 0.5);
  }
  sharded.drain(1);
  EXPECT_EQ(sharded.n_local(1), 2u);
  EXPECT_EQ(sharded.n_observed(1), 6u);

  // The next gossip round merges only the delta (nothing new at shard 0),
  // not the whole log again.
  for (int i = 0; i < 2; ++i) {
    sharded.enqueue_tell(1, space.sample(rng), 0.5);
  }
  sharded.drain(1);
  EXPECT_EQ(sharded.n_observed(1), 8u);
}

TEST(ShardedBo, GossipZeroKeepsShardsIsolated) {
  bo::ParamSpace space = bo::ParamSpace::paper_space();
  bo::ShardedBo sharded(space, small_sharded_config(2, 0));
  Rng rng(3);
  for (int i = 0; i < 8; ++i) sharded.enqueue_tell(0, space.sample(rng), 0.5);
  sharded.drain(0);
  sharded.enqueue_tell(1, space.sample(rng), 0.5);
  sharded.drain(1);
  EXPECT_EQ(sharded.n_observed(0), 8u);
  EXPECT_EQ(sharded.n_observed(1), 1u);
}

// --- shards=1 ≡ centralized (the acceptance gate) -------------------------

// Unit-level reference: the search's only BO path is a ShardedBo, so the
// bare AskTellOptimizer is the independent reference for the one-shard
// case. Same BoConfig and seed, the manager's call sequence (a warm-start
// batch, then one batched tell + one ask(k) per step): every asked point,
// the observation count, the rng words and the tell logs must match.
TEST(ShardedBo, OneShardMatchesBareOptimizer) {
  bo::ParamSpace space = bo::ParamSpace::paper_space();
  bo::ShardedBoConfig cfg;
  cfg.shards = 1;
  cfg.bo.n_initial_random = 6;
  cfg.bo.n_candidates = 48;
  cfg.bo.n_trees = 6;
  cfg.bo.seed = 17;
  bo::ShardedBo sharded(space, cfg);
  bo::AskTellOptimizer bare(space, cfg.bo);

  auto expect_same_state = [&](const std::string& where) {
    const bo::AskTellOptimizer& opt = sharded.optimizer(0);
    EXPECT_EQ(sharded.n_observed(0), bare.n_observed()) << where;
    EXPECT_EQ(opt.tell_log_points(), bare.tell_log_points()) << where;
    EXPECT_EQ(opt.tell_log_objectives(), bare.tell_log_objectives()) << where;
    const Rng::State a = opt.rng_state();
    const Rng::State b = bare.rng_state();
    for (int w = 0; w < 4; ++w) EXPECT_EQ(a.s[w], b.s[w]) << where;
    EXPECT_EQ(a.has_cached_normal, b.has_cached_normal) << where;
    EXPECT_EQ(std::memcmp(&a.cached_normal, &b.cached_normal, sizeof(double)),
              0)
        << where;
  };

  // Warm start: one batched tell of prior records before any ask.
  Rng rng(5);
  std::vector<bo::Point> prior;
  std::vector<double> prior_y;
  for (int i = 0; i < 4; ++i) {
    prior.push_back(space.sample(rng));
    prior_y.push_back(toy_objective(prior.back()));
  }
  for (std::size_t i = 0; i < prior.size(); ++i) {
    sharded.enqueue_tell(0, prior[i], prior_y[i]);
  }
  sharded.drain(0);
  bare.tell(prior, prior_y);
  expect_same_state("warm start");

  std::vector<bo::Point> pending = sharded.ask(0, 5);
  ASSERT_EQ(pending, bare.ask(5));
  // Steps: the first few finished points come back as one batch, the
  // manager asks for as many replacements. Batch sizes cycle 1..3 so the
  // random phase, the surrogate phase and multi-point liar batches all run.
  for (std::size_t step = 0; step < 12; ++step) {
    const std::size_t k = 1 + step % 3;
    std::vector<bo::Point> batch(pending.begin(), pending.begin() + k);
    pending.erase(pending.begin(), pending.begin() + k);
    std::vector<double> ys;
    for (const auto& p : batch) ys.push_back(toy_objective(p));
    for (std::size_t i = 0; i < k; ++i) {
      sharded.enqueue_tell(0, batch[i], ys[i]);
    }
    bare.tell(batch, ys);
    const std::vector<bo::Point> asked = sharded.ask(0, k);
    ASSERT_EQ(asked, bare.ask(k)) << "step " << step;
    expect_same_state("step " + std::to_string(step));
    pending.insert(pending.end(), asked.begin(), asked.end());
  }
  EXPECT_EQ(sharded.n_local(0), bare.n_observed());
}

core::SearchResult run_small_campaign(std::size_t bo_shards,
                                      std::uint64_t seed) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  exec::SimulatedExecutor executor(16, 90.0, {}, {});
  core::SearchConfig cfg = core::agebo_config(seed);
  cfg.bo_shards = bo_shards;
  cfg.wall_time_seconds = 40.0 * 60.0;
  core::AgeboSearch search(space, evaluator, executor, cfg);
  return search.run();
}

TEST(ShardedSearch, OneShardReproducesCentralizedByteForByte) {
  const core::SearchResult central = run_small_campaign(0, 21);
  const core::SearchResult sharded1 = run_small_campaign(1, 21);
  std::ostringstream a;
  std::ostringstream b;
  core::save_history(central, a);
  core::save_history(sharded1, b);
  EXPECT_EQ(a.str(), b.str());  // the full campaign history, byte-for-byte
  EXPECT_EQ(central.best_objective, sharded1.best_objective);
}

TEST(ShardedSearch, ShardedCampaignIsRepeatable) {
  const core::SearchResult a = run_small_campaign(4, 33);
  const core::SearchResult b = run_small_campaign(4, 33);
  std::ostringstream sa;
  std::ostringstream sb;
  core::save_history(a, sa);
  core::save_history(b, sb);
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(a.history.empty());
}

// --- Checkpointing --------------------------------------------------------

TEST(ShardedBo, SaveStateRequiresDrainedQueues) {
  bo::ParamSpace space = bo::ParamSpace::paper_space();
  bo::ShardedBo sharded(space, small_sharded_config(2, 2));
  Rng rng(9);
  sharded.enqueue_tell(0, space.sample(rng), 0.5);
  std::ostringstream os;
  EXPECT_THROW(sharded.save_state(os), std::logic_error);
  sharded.drain(0);
  EXPECT_NO_THROW(sharded.save_state(os));
}

TEST(ShardedBo, RestoredOptimizerContinuesIdentically) {
  bo::ParamSpace space = bo::ParamSpace::paper_space();
  const bo::ShardedBoConfig cfg = small_sharded_config(3, 2);
  bo::ShardedBo uninterrupted(space, cfg);
  bo::ShardedBo original(space, cfg);

  // Advance both through the same prefix, snapshot one, and restore into a
  // fresh instance; the suffix must then be identical on both sides —
  // including the incremental-surrogate and gossip state the snapshot has
  // to carry.
  EXPECT_EQ(drive(uninterrupted, 30), drive(original, 30));
  std::ostringstream snap;
  original.save_state(snap);
  bo::ShardedBo restored(space, cfg);
  {
    std::istringstream is(snap.str());
    restored.load_state(is);
  }
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    ASSERT_EQ(restored.n_observed(s), uninterrupted.n_observed(s));
  }
  EXPECT_EQ(drive(uninterrupted, 30), drive(restored, 30));

  // And a snapshot of the restored instance is byte-identical to a fresh
  // snapshot of the uninterrupted one.
  std::ostringstream a;
  std::ostringstream b;
  uninterrupted.save_state(a);
  restored.save_state(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ShardedBo, LoadStateRejectsConfigMismatch) {
  bo::ParamSpace space = bo::ParamSpace::paper_space();
  bo::ShardedBo two(space, small_sharded_config(2, 2));
  std::ostringstream os;
  two.save_state(os);
  bo::ShardedBo three(space, small_sharded_config(3, 2));
  std::istringstream is(os.str());
  EXPECT_THROW(three.load_state(is), std::runtime_error);
}

// A ticket's shard indexes the search's shard array on its completion, so
// a checkpoint naming a shard the config does not have must be rejected at
// load, not read out of bounds at the next step.
TEST(ShardedSearch, LoadStateRejectsOutOfRangeTicketShard) {
  nas::SearchSpace space;
  const core::SearchConfig cfg = core::config_by_name("agebo-d2", 3);
  core::AgeboSearch search(space, cfg);
  search.start(4);
  std::ostringstream os;
  search.save_state(os);
  std::string text = os.str();
  const std::size_t ts = text.find("\nts ");
  ASSERT_NE(ts, std::string::npos);
  const std::size_t end = text.find('\n', ts + 1);
  const std::size_t shard = text.rfind(' ', end);
  text.replace(shard + 1, end - shard - 1, "2");

  core::AgeboSearch fresh(space, cfg);
  std::istringstream is(text);
  EXPECT_THROW(fresh.load_state(is), std::runtime_error);
}

// The svc acceptance path: a sharded campaign checkpointed mid-flight and
// resumed in a fresh service must reproduce the uninterrupted run exactly
// (the sharded "shards" checkpoint section rides inside the campaign blob).
TEST(ShardedSvc, KilledShardedCampaignResumesExactly) {
  nas::SearchSpace space;
  svc::SvcConfig cfg;
  cfg.workers = 16;
  cfg.job_overhead_seconds = 90.0;

  auto sharded_spec = [] {
    svc::CampaignSpec spec;
    spec.name = "decentral";
    spec.tenant = "default";
    spec.kind = svc::CampaignKind::kAgebo;
    spec.dataset = "covertype";
    spec.variant = "agebo-d2";
    spec.wall_time_seconds = 40.0 * 60.0;
    spec.seed = 19;
    return spec;
  };

  svc::CampaignRegistry uninterrupted(cfg, space);
  uninterrupted.add_campaign(sharded_spec());
  EXPECT_TRUE(uninterrupted.run());
  ASSERT_FALSE(uninterrupted.campaign(0).history().empty());

  const std::string ckpt =
      std::string(::testing::TempDir()) + "bo_sharded_resume.ckpt";
  svc::SvcConfig kill_cfg = cfg;
  kill_cfg.checkpoint_path = ckpt;
  svc::CampaignRegistry killed(kill_cfg, space);
  killed.add_campaign(sharded_spec());
  EXPECT_FALSE(killed.run(/*stop_after_seconds=*/900.0));

  svc::CampaignRegistry resumed(kill_cfg, space);
  resumed.load_checkpoint(ckpt);
  EXPECT_TRUE(resumed.run());

  const auto& a = uninterrupted.campaign(0).history();
  const auto& b = resumed.campaign(0).history();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objective, b[i].objective) << "record " << i;
    EXPECT_EQ(a[i].finish_time, b[i].finish_time) << "record " << i;
    EXPECT_EQ(a[i].config.genome, b[i].config.genome) << "record " << i;
    EXPECT_EQ(a[i].config.hparams, b[i].config.hparams) << "record " << i;
  }
  std::remove(ckpt.c_str());
}

}  // namespace

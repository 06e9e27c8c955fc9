// Decentralized asynchronous BO (DESIGN.md §15), after "Asynchronous
// Decentralized Bayesian Optimization for Large Scale Hyperparameter
// Optimization" (Egelé et al.): the single manager-side AskTellOptimizer is
// sharded into per-worker-group optimizers, each with
//
//  - its own lock-free MPSC history queue: completed evaluations are
//    pushed by any thread via enqueue_tell() and ingested by the shard's
//    next ask() without a mutex on the hot path;
//  - a seeded deterministic gossip schedule: after every `gossip_every`
//    local tells, the shard merges the not-yet-consumed suffix of
//    `gossip_fanout` peers' tell logs (per-peer prefix counters make the
//    merge a delta exchange, and a shard never rebroadcasts merged tells,
//    so the exchange cannot loop);
//  - local batch diversification: constant-liar or qUCB state never leaves
//    the shard, so one shard's ask() never blocks on another's.
//
// Threading contract: enqueue_tell() is safe from any thread; every other
// method (ask, save_state, load_state, accessors) must be driven by ONE
// pump thread. Under that contract the whole structure is deterministic:
// the same seed + the same enqueue/ask sequence reproduces the same
// decisions, which is what the shard-determinism and checkpoint tests gate.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <vector>

#include "bo/mpsc_queue.hpp"
#include "bo/optimizer.hpp"
#include "bo/param_space.hpp"
#include "common/rng.hpp"
#include "obs/registry.hpp"

namespace agebo::bo {

struct ShardedBoConfig {
  std::size_t shards = 1;
  /// Local tells between gossip merges; 0 disables gossip (shards only
  /// ever learn their own workers' results).
  std::size_t gossip_every = 8;
  /// Peers whose tell-log deltas are merged per gossip round.
  std::size_t gossip_fanout = 2;
  /// Per-shard optimizer template. Shard 0 uses bo.seed verbatim — the
  /// shards=1 degenerate case is bit-for-bit the centralized optimizer —
  /// and shard s derives bo.seed + 1000003 * s.
  BoConfig bo;
};

class ShardedBo {
 public:
  ShardedBo(ParamSpace space, ShardedBoConfig cfg);
  /// Discards any still-queued tells: an abandoned search (aborted
  /// campaign, thrown-through error path) tears down without tripping
  /// MpscQueue's drained-at-destruction contract. Checkpointing still
  /// requires an explicit drain() — save_state throws on a non-empty queue.
  ~ShardedBo();

  std::size_t shards() const { return shards_.size(); }
  const ShardedBoConfig& config() const { return cfg_; }

  /// Thread-safe: record one completed evaluation for `shard` (the shard
  /// that asked the point). Ingested at the shard's next ask()/drain().
  void enqueue_tell(std::size_t shard, Point point, double objective);

  /// Pump thread: ingest the shard's queued tells, run the gossip schedule
  /// if due, and generate `k` points from the shard's own optimizer.
  std::vector<Point> ask(std::size_t shard, std::size_t k);

  /// Pump thread: ingest queued tells (and gossip if due) without asking —
  /// used before checkpointing so no tell is lost in a queue.
  void drain(std::size_t shard);

  std::size_t n_observed(std::size_t shard) const;
  /// Tells ingested from the shard's own queue (excludes gossip merges).
  std::size_t n_local(std::size_t shard) const;
  const AskTellOptimizer& optimizer(std::size_t shard) const;

  /// Line-oriented snapshot of every shard: optimizer tell log + rng,
  /// local-log contents, per-peer consumed prefixes, gossip rng, and the
  /// incremental-surrogate fit state. Queues must be drained first (throws
  /// std::logic_error otherwise — drain() is cheap and pump-owned).
  void save_state(std::ostream& os) const;
  /// Restore into a freshly constructed ShardedBo with the same space and
  /// config. Throws std::runtime_error on malformed or mismatched input.
  void load_state(std::istream& is);
  /// Restore a one-shard instance from a bare optimizer's tell log + rng
  /// (the legacy centralized checkpoint): shard 0 ends up exactly as an
  /// uninterrupted one-shard run that ingested the same tells — optimizer
  /// log and rng, local log = those tells, gossip counter = their count.
  /// Throws std::logic_error unless shards() == 1 and nothing was told yet.
  void restore_one_shard(const std::vector<Point>& points,
                         const std::vector<double>& objectives,
                         const Rng::State& rng);

 private:
  struct TellItem {
    Point point;
    double objective = 0.0;
  };

  struct Shard {
    AskTellOptimizer opt;
    MpscQueue<TellItem> queue;
    /// Own-queue tells in ingestion order; peers consume suffix deltas.
    std::vector<TellItem> local_log;
    /// local_log prefix of each peer already merged into this shard.
    std::vector<std::size_t> consumed;
    std::size_t since_gossip = 0;
    Rng gossip_rng;

    Shard(const ParamSpace& space, const BoConfig& bo, std::uint64_t grng_seed)
        : opt(space, bo), gossip_rng(grng_seed) {}
  };

  void ingest(Shard& s);
  void gossip(std::size_t shard);

  ParamSpace space_;
  ShardedBoConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // bo.shard.* instrumentation (DESIGN.md §15): ask/tell/merge latency
  // histograms plus the queue depth observed at each drain.
  obs::Histogram m_ask_;
  obs::Histogram m_tell_;
  obs::Histogram m_merge_;
  obs::Gauge m_depth_;
};

}  // namespace agebo::bo

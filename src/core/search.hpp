// Algorithm 1 of the paper: aging evolution (AgE) over the architecture
// space, optionally joined with asynchronous Bayesian optimization (AgEBO)
// over the data-parallel-training hyperparameters.
//
// The search runs as the manager of a manager-worker system: it submits
// evaluations through a non-blocking Executor, collects finished results,
// ages the population, tells the BO optimizer, and generates |results| new
// (architecture, hyperparameter) pairs per iteration. AgE is the
// use_bo=false degenerate case with fixed hyperparameters (the black lines
// of Algorithm 1); AgEBO adds the blue lines. Partial variants
// (AgEBO-8-LR, AgEBO-8-LR-BS) are expressed by freezing dimensions of the
// hyperparameter space to single-value categoricals (see variants.hpp).
//
// Two driving modes (DESIGN.md §14):
//
//  - run(): the classic owning loop — the search holds an Executor and
//    pumps it to completion itself. Single-campaign CLIs use this.
//  - pump: start()/step() expose the same algorithm as a non-blocking
//    state machine producing EvalTickets and consuming EvalDones, so an
//    external scheduler (the campaign service's CampaignRegistry) can
//    multiplex many searches onto one shared executor and checkpoint the
//    whole search state (save_state/load_state) between steps. run() is
//    implemented on top of the pump, so both modes share one algorithm.
#pragma once

#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <vector>

#include "bo/sharded_optimizer.hpp"
#include "eval/evaluation.hpp"
#include "exec/executor.hpp"
#include "nas/search_space.hpp"
#include "obs/registry.hpp"

namespace agebo::core {

/// One completed evaluation in completion order.
struct EvalRecord {
  std::size_t index = 0;
  double finish_time = 0.0;     ///< executor seconds
  double objective = 0.0;       ///< validation accuracy (0 when failed)
  double train_seconds = 0.0;
  /// True when every attempt crashed or was killed (retries exhausted).
  /// Failed records stay in the history — failure is information the BO
  /// surrogate should see — but are never aged into the population.
  bool failed = false;
  /// Executor attempts consumed (1 = no retries).
  std::size_t attempts = 1;
  /// True when the evaluation survived replica loss through elastic
  /// reconfiguration (DESIGN.md §16): still a success, but produced at a
  /// smaller world size than requested.
  bool degraded = false;
  /// Data-parallel world size the evaluation finished with (0 = unknown).
  std::size_t final_world = 0;
  eval::ModelConfig config;
};

/// One evaluation a pumped search wants scheduled. The driver owns the
/// executor: it turns tickets into submissions (at whatever time admission
/// control allows) and feeds the completions back as EvalDones. `ticket`
/// is a search-local id — never an executor job id — so a search can be
/// checkpointed and its outstanding work resubmitted by a later process.
struct EvalTicket {
  std::uint64_t ticket = 0;
  eval::ModelConfig config;
  /// Training-budget fraction (successive halving rungs); 1 = full.
  double fidelity = 1.0;
  /// JobSpec fields the search decides per evaluation.
  std::size_t width = 1;
  double timeout_seconds = 0.0;
  std::size_t max_retries = 0;
  std::string tag;
};

/// One completed evaluation handed back to a pumped search.
/// `finish_time` is in the search's own clock (seconds since its start) —
/// the driver translates executor time before delivery.
struct EvalDone {
  std::uint64_t ticket = 0;
  double finish_time = 0.0;
  double objective = 0.0;
  double train_seconds = 0.0;
  bool failed = false;
  bool timed_out = false;
  std::size_t attempts = 1;
  bool degraded = false;
  std::size_t final_world = 0;
};

/// Population replacement policy. The paper uses aging (drop the oldest
/// member, which is what regularizes the evolution); kWorst is the classic
/// elitist alternative ablated in bench_ablations.
enum class Replacement { kAging, kWorst };

struct SearchConfig {
  std::size_t population_size = 100;  ///< P
  std::size_t sample_size = 10;       ///< S
  Replacement replacement = Replacement::kAging;
  /// Search wall-time budget in executor seconds (virtual in simulation).
  double wall_time_seconds = 180.0 * 60.0;
  /// Number of initial submissions (W workers each get one; defaults to
  /// the executor's worker count when 0).
  std::size_t initial_submissions = 0;
  bool use_bo = false;
  bo::ParamSpace hp_space;            ///< sampled/tuned when use_bo
  bo::BoConfig bo;                    ///< kappa etc.
  bo::Point fixed_hparams;            ///< used when !use_bo
  /// Decentralized BO (DESIGN.md §15): shard the optimizer into bo_shards
  /// per-worker-group optimizers exchanging tells via gossip. 0 and 1 both
  /// mean one shard — the paper's centralized manager: one batched tell and
  /// one ask(|results|) per step. At >= 2 shards the per-shard optimizers
  /// default to the incremental-refit + qUCB fast path (unless the BoConfig
  /// was explicitly overridden).
  std::size_t bo_shards = 0;
  /// Local tells between gossip merges (ShardedBoConfig::gossip_every).
  /// 4 is the empirical sweet spot on the simulated campaigns: frequent
  /// enough that no shard starves for global history, infrequent enough
  /// that shards keep distinct search trajectories.
  std::size_t bo_gossip_every = 4;
  /// Pure random search over H_a (children never mutate the population) —
  /// a sanity baseline for the ablation benches.
  bool random_search = false;
  /// Number of workers one evaluation occupies (gang width) as a function
  /// of its configuration; default 1 (the paper's single-node training).
  /// The multinode extension maps n > 8 processes to ceil(n/8) nodes.
  std::function<std::size_t(const eval::ModelConfig&)> width_fn;
  /// Per-evaluation kill deadline in executor seconds (JobSpec::timeout);
  /// 0 disables. Executor-level straggler policy applies regardless.
  double eval_timeout_seconds = 0.0;
  /// Resubmissions of a crashed/killed evaluation before it is recorded as
  /// failed (JobSpec::max_retries).
  std::size_t eval_max_retries = 0;
  /// Invoked on the manager thread for every completed evaluation, in
  /// completion order — progress streaming for CLIs and dashboards.
  std::function<void(const EvalRecord&)> on_result;
  /// Prior evaluations (e.g. loaded via core::load_history from an earlier
  /// run on a related dataset) used to seed the population and the BO
  /// surrogate before any new evaluation — transfer/warm-start search, the
  /// paper's future-work item (3). Records with hyperparameters outside
  /// hp_space seed only the population.
  std::vector<EvalRecord> warm_start;
  std::uint64_t seed = 1;
};

struct SearchResult {
  std::vector<EvalRecord> history;
  double best_objective = 0.0;
  std::size_t best_index = 0;  ///< into history
  exec::Utilization utilization;

  const EvalRecord& best() const { return history.at(best_index); }
};

/// Fill best_index/best_objective from result.history (utilization is the
/// caller's). Shared by both searchers and the campaign service.
void finalize_result(SearchResult& result);

class AgeboSearch {
 public:
  /// Pump mode: no executor — the caller drives via start()/step().
  AgeboSearch(const nas::SearchSpace& space, SearchConfig cfg);

  /// Owning mode: run() pumps `executor` itself.
  AgeboSearch(const nas::SearchSpace& space, eval::Evaluator& evaluator,
              exec::Executor& executor, SearchConfig cfg);

  /// Run until the wall-time budget is exhausted; returns the history.
  SearchResult run();

  // --- Pump API (DESIGN.md §14) -------------------------------------
  // start() applies the warm start and emits the initial `n_init`
  // tickets (cfg.initial_submissions when 0; one per worker is the
  // owning-mode default). step() ingests completions — completions past
  // the wall-time budget are dropped exactly as in run() — and returns
  // one child ticket per recorded completion, or nothing once the budget
  // is exhausted. Both consume the search rng in the same order as
  // run(), so a pumped search over the same completion sequence produces
  // the identical trajectory.

  std::vector<EvalTicket> start(std::size_t n_init);
  std::vector<EvalTicket> step(const std::vector<EvalDone>& done, double now);
  bool started() const { return started_; }
  /// True once `now` has passed the wall-time budget: no further tickets.
  bool budget_exhausted(double now) const {
    return now >= cfg_.wall_time_seconds;
  }
  double wall_time_seconds() const { return cfg_.wall_time_seconds; }
  /// Tickets issued but not yet delivered back (keyed by ticket id) — what
  /// a resumed service must resubmit when the executor could not snapshot.
  const std::map<std::uint64_t, EvalTicket>& outstanding() const {
    return outstanding_;
  }
  const std::vector<EvalRecord>& history() const { return history_; }
  /// History + best so far; utilization left default (the driver owns the
  /// executor and fills it in).
  SearchResult result() const;

  /// Serialize the complete mutable search state — rng, population,
  /// history, outstanding tickets, BO tell log — in the line-oriented
  /// checkpoint dialect (DESIGN.md §14). load_state restores into a
  /// freshly constructed search with the same space and config (a
  /// fingerprint line guards against mismatches) before start()/step()
  /// have been called. Throws std::runtime_error on malformed input.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  struct Member {
    nas::Genome genome;
    double objective;
  };

  eval::ModelConfig make_child(const std::vector<bo::Point>& next,
                               std::size_t i);
  EvalTicket make_ticket(eval::ModelConfig config);
  void apply_warm_start();
  void ingest(const EvalDone& done, const eval::ModelConfig& config,
              std::vector<bo::Point>& told_points,
              std::vector<double>& told_objectives);

  /// Ask the BO shards for one point per entry of `shards` (the shard
  /// that owns that slot) and emit one child ticket per entry.
  std::vector<EvalTicket> spawn(const std::vector<std::size_t>& shards);

  const nas::SearchSpace* space_;
  eval::Evaluator* evaluator_ = nullptr;   // owning mode only
  exec::Executor* executor_ = nullptr;     // owning mode only
  SearchConfig cfg_;
  Rng rng_;
  std::unique_ptr<bo::ShardedBo> bo_;  // cfg.use_bo only
  /// Shard that asked each outstanding ticket's hyperparameters — its
  /// completion is told back to the same shard (use_bo only).
  std::map<std::uint64_t, std::size_t> ticket_shard_;
  std::deque<Member> population_;
  std::vector<EvalRecord> history_;
  std::map<std::uint64_t, EvalTicket> outstanding_;
  std::uint64_t next_ticket_ = 1;
  bool started_ = false;
  double best_so_far_ = 0.0;

  // Search-level metrics (DESIGN.md §10): evaluation counts, the running
  // best objective, and the cost of AgE mutations.
  obs::Counter m_evals_;
  obs::Counter m_evals_failed_;
  obs::Gauge m_best_;
  obs::Histogram m_mutate_hist_;
};

}  // namespace agebo::core

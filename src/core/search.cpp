#include "core/search.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "core/history_io.hpp"
#include "common/state_io.hpp"
#include "obs/span.hpp"

namespace agebo::core {

void finalize_result(SearchResult& result) {
  if (result.history.empty()) return;
  result.best_index = 0;
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    if (result.history[i].objective >
        result.history[result.best_index].objective) {
      result.best_index = i;
    }
  }
  result.best_objective = result.history[result.best_index].objective;
}

AgeboSearch::AgeboSearch(const nas::SearchSpace& space, SearchConfig cfg)
    : space_(&space), cfg_(std::move(cfg)), rng_(cfg_.seed) {
  if (cfg_.population_size == 0 || cfg_.sample_size == 0) {
    throw std::invalid_argument("SearchConfig: P and S must be positive");
  }
  if (cfg_.sample_size > cfg_.population_size) {
    throw std::invalid_argument("SearchConfig: S > P");
  }
  if (cfg_.use_bo) {
    if (cfg_.hp_space.size() == 0) {
      throw std::invalid_argument("SearchConfig: use_bo without hp_space");
    }
    bo::ShardedBoConfig scfg;
    scfg.shards = std::max<std::size_t>(1, cfg_.bo_shards);
    scfg.gossip_every = cfg_.bo_gossip_every;
    scfg.bo = cfg_.bo;
    scfg.bo.seed = cfg_.seed * 31 + 7;
    if (scfg.shards > 1) {
      // Decentralized fast path (DESIGN.md §15): at >= 2 shards the
      // paper's defaults (full refit, constant liar) are upgraded to the
      // incremental surrogate + qUCB batching — one cheap refit per shard
      // ask instead of one full-forest refit per picked point. One shard
      // keeps the paper's modes: it is the centralized manager.
      if (scfg.bo.refit == bo::RefitMode::kFull) {
        scfg.bo.refit = bo::RefitMode::kIncremental;
      }
      if (scfg.bo.batch == bo::BatchMode::kConstantLiar) {
        scfg.bo.batch = bo::BatchMode::kQUcb;
      }
    }
    bo_ = std::make_unique<bo::ShardedBo>(cfg_.hp_space, scfg);
  } else if (cfg_.fixed_hparams.empty()) {
    throw std::invalid_argument("SearchConfig: fixed mode needs fixed_hparams");
  }
  auto& reg = obs::Registry::global();
  m_evals_ = reg.counter("search.evals");
  m_evals_failed_ = reg.counter("search.evals_failed");
  m_best_ = reg.gauge("search.best_objective");
  m_mutate_hist_ = reg.histogram("age.mutate_seconds");
}

AgeboSearch::AgeboSearch(const nas::SearchSpace& space,
                         eval::Evaluator& evaluator, exec::Executor& executor,
                         SearchConfig cfg)
    : AgeboSearch(space, std::move(cfg)) {
  evaluator_ = &evaluator;
  executor_ = &executor;
}

eval::ModelConfig AgeboSearch::make_child(const std::vector<bo::Point>& next,
                                          std::size_t i) {
  eval::ModelConfig child;
  if (cfg_.random_search) {
    child.genome = space_->random(rng_);
    child.hparams = cfg_.use_bo ? next[i] : cfg_.fixed_hparams;
    return child;
  }
  if (population_.size() >= cfg_.population_size) {
    // Lines 16-18: sample S members, pick the best, mutate one decision.
    obs::ScopedLatency lat(m_mutate_hist_);
    const auto idx =
        rng_.sample_without_replacement(population_.size(), cfg_.sample_size);
    std::size_t best = idx[0];
    for (std::size_t k : idx) {
      if (population_[k].objective > population_[best].objective) best = k;
    }
    child.genome = space_->mutate(population_[best].genome, rng_);
  } else {
    // Line 20: random while the population is filling.
    child.genome = space_->random(rng_);
  }
  child.hparams = cfg_.use_bo ? next[i] : cfg_.fixed_hparams;
  return child;
}

EvalTicket AgeboSearch::make_ticket(eval::ModelConfig config) {
  EvalTicket t;
  t.ticket = next_ticket_++;
  t.width = cfg_.width_fn ? cfg_.width_fn(config) : 1;
  t.timeout_seconds = cfg_.eval_timeout_seconds;
  t.max_retries = cfg_.eval_max_retries;
  t.config = std::move(config);
  outstanding_.emplace(t.ticket, t);
  return t;
}

void AgeboSearch::apply_warm_start() {
  // Warm start: seed the population and BO surrogate with prior records.
  if (cfg_.warm_start.empty()) return;
  std::vector<bo::Point> prior_points;
  std::vector<double> prior_objectives;
  for (const auto& rec : cfg_.warm_start) {
    if (rec.failed) continue;  // failures carry no transferable signal
    space_->validate(rec.config.genome);
    population_.push_back(Member{rec.config.genome, rec.objective});
    while (population_.size() > cfg_.population_size) population_.pop_front();
    if (cfg_.use_bo && rec.config.hparams.size() == cfg_.hp_space.size()) {
      try {
        cfg_.hp_space.validate(rec.config.hparams);
        prior_points.push_back(rec.config.hparams);
        prior_objectives.push_back(rec.objective);
      } catch (const std::invalid_argument&) {
        // Outside this search's (possibly frozen) space: population only.
      }
    }
  }
  if (!prior_points.empty()) {
    // Warm-start tells land on shard 0 as one batched tell; at >= 2 shards
    // gossip spreads them from there.
    for (std::size_t i = 0; i < prior_points.size(); ++i) {
      bo_->enqueue_tell(0, prior_points[i], prior_objectives[i]);
    }
    bo_->drain(0);
  }
}

std::vector<EvalTicket> AgeboSearch::start(std::size_t n_init) {
  if (started_) throw std::logic_error("AgeboSearch::start: already started");
  started_ = true;
  apply_warm_start();

  // Initialization (lines 3-7): n_init submissions. Without a warm start
  // these are random points; with a full warm-started population they are
  // mutations of its best members (make_child handles both).
  if (n_init == 0) n_init = cfg_.initial_submissions;
  if (n_init == 0) {
    throw std::invalid_argument("AgeboSearch::start: zero initial submissions");
  }
  // Initial submission i belongs to shard i % S.
  const std::size_t S = bo_ ? bo_->shards() : 1;
  std::vector<std::size_t> shards(n_init);
  for (std::size_t i = 0; i < n_init; ++i) shards[i] = i % S;
  return spawn(shards);
}

std::vector<EvalTicket> AgeboSearch::spawn(
    const std::vector<std::size_t>& shards) {
  const std::size_t n = shards.size();
  std::vector<bo::Point> hp;
  if (bo_) {
    // Each shard asks for exactly as many points as it owns slots (one
    // ask per shard, ascending shard order) and the replies interleave
    // back into slot order. At one shard this is a single ask(n) — the
    // paper's centralized call.
    const std::size_t S = bo_->shards();
    std::vector<std::size_t> count(S, 0);
    for (const std::size_t s : shards) ++count[s];
    std::vector<std::vector<bo::Point>> asked(S);
    for (std::size_t s = 0; s < S; ++s) {
      if (count[s] > 0) asked[s] = bo_->ask(s, count[s]);
    }
    std::vector<std::size_t> pos(S, 0);
    hp.reserve(n);
    for (const std::size_t s : shards) {
      hp.push_back(std::move(asked[s][pos[s]++]));
    }
  }
  // One child per slot (make_child: lines 14-23 of Algorithm 1).
  std::vector<EvalTicket> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    EvalTicket t = make_ticket(make_child(hp, i));
    if (bo_) ticket_shard_[t.ticket] = shards[i];
    out.push_back(std::move(t));
  }
  return out;
}

void AgeboSearch::ingest(const EvalDone& done, const eval::ModelConfig& config,
                         std::vector<bo::Point>& told_points,
                         std::vector<double>& told_objectives) {
  EvalRecord rec;
  rec.index = history_.size();
  rec.finish_time = done.finish_time;
  rec.objective = done.failed ? 0.0 : done.objective;
  rec.train_seconds = done.train_seconds;
  rec.failed = done.failed;
  rec.attempts = done.attempts;
  rec.degraded = done.degraded;
  rec.final_world = done.final_world;
  rec.config = config;
  history_.push_back(rec);
  m_evals_.inc();
  if (rec.failed) m_evals_failed_.inc();
  if (rec.objective > best_so_far_) {
    best_so_far_ = rec.objective;
    m_best_.set(best_so_far_);
    // Counter track in executor time: the population-best staircase
    // renders alongside the worker lanes in the Chrome trace.
    obs::record_counter_sample("search.best_objective", done.finish_time,
                               best_so_far_);
  }
  if (cfg_.on_result) cfg_.on_result(history_.back());

  // Graceful degradation: an evaluation whose retries are exhausted is
  // recorded (failed=true) and told to the BO as objective 0 — the
  // penalty steers the surrogate away from e.g. timeout-prone
  // hyperparameters — but never enters the population, so evolution
  // keeps mutating genomes that actually trained.
  if (!rec.failed) {
    // Aging population: append, drop oldest beyond P (line 11). The
    // kWorst ablation drops the lowest-objective member instead.
    population_.push_back(Member{config.genome, rec.objective});
    while (population_.size() > cfg_.population_size) {
      if (cfg_.replacement == Replacement::kAging) {
        population_.pop_front();
      } else {
        auto worst = population_.begin();
        for (auto it = population_.begin(); it != population_.end(); ++it) {
          if (it->objective < worst->objective) worst = it;
        }
        population_.erase(worst);
      }
    }
  }

  told_points.push_back(config.hparams);
  told_objectives.push_back(rec.objective);
}

std::vector<EvalTicket> AgeboSearch::step(const std::vector<EvalDone>& done,
                                          double now) {
  if (!started_) throw std::logic_error("AgeboSearch::step before start");
  std::vector<bo::Point> told_points;
  std::vector<double> told_objectives;
  std::vector<std::size_t> done_shards;  // shard of each ingested done
  for (const auto& d : done) {
    auto it = outstanding_.find(d.ticket);
    if (it == outstanding_.end()) {
      throw std::logic_error("AgeboSearch::step: unknown ticket " +
                             std::to_string(d.ticket));
    }
    const eval::ModelConfig config = std::move(it->second.config);
    outstanding_.erase(it);
    std::size_t shard = 0;
    if (bo_) {
      auto sit = ticket_shard_.find(d.ticket);
      if (sit == ticket_shard_.end()) {
        throw std::logic_error("AgeboSearch::step: ticket without shard " +
                               std::to_string(d.ticket));
      }
      shard = sit->second;
      ticket_shard_.erase(sit);
    }
    if (d.finish_time > cfg_.wall_time_seconds) continue;  // past budget
    ingest(d, config, told_points, told_objectives);
    done_shards.push_back(shard);
  }
  if (now >= cfg_.wall_time_seconds) return {};
  const std::size_t n_new = told_objectives.size();
  if (n_new == 0) return {};

  // Lines 12-13: tell/ask |results| hyperparameter configurations. Each
  // completion is told back to the shard that asked it through the
  // shards' lock-free queues (in delivery order); each shard ingests them
  // as one batched tell at its next ask, and its replacement children
  // take the completions' slots. At one shard this is one batched tell +
  // one ask(|results|) — the paper's centralized call sequence.
  if (bo_) {
    for (std::size_t i = 0; i < n_new; ++i) {
      bo_->enqueue_tell(done_shards[i], told_points[i], told_objectives[i]);
    }
  }
  return spawn(done_shards);
}

SearchResult AgeboSearch::result() const {
  SearchResult r;
  r.history = history_;
  finalize_result(r);
  return r;
}

SearchResult AgeboSearch::run() {
  if (executor_ == nullptr || evaluator_ == nullptr) {
    throw std::logic_error("AgeboSearch::run: constructed in pump mode");
  }
  obs::set_thread_lane("search.manager");

  // Owning mode is the pump driven by this executor: tickets become
  // submissions immediately, completions come back as EvalDones.
  std::unordered_map<std::uint64_t, std::uint64_t> job_to_ticket;
  auto submit_tickets = [&](const std::vector<EvalTicket>& tickets) {
    for (const auto& t : tickets) {
      eval::Evaluator* evaluator = evaluator_;
      exec::JobSpec spec;
      spec.width = t.width;
      spec.timeout_seconds = t.timeout_seconds;
      spec.max_retries = t.max_retries;
      spec.tag = t.tag;
      const eval::ModelConfig config = t.config;
      const double fidelity = t.fidelity;
      const std::uint64_t id = executor_->submit(
          [evaluator, config, fidelity] {
            return evaluator->evaluate(eval::EvalRequest{config, fidelity});
          },
          spec);
      job_to_ticket[id] = t.ticket;
    }
  };

  std::size_t n_init = cfg_.initial_submissions;
  if (n_init == 0) n_init = executor_->num_workers();
  submit_tickets(start(n_init));

  // Main loop (lines 8-25).
  while (executor_->now() < cfg_.wall_time_seconds) {
    auto finished = executor_->get_finished(/*block=*/true);
    if (finished.empty()) break;  // nothing in flight: search exhausted

    std::vector<EvalDone> done;
    done.reserve(finished.size());
    for (const auto& f : finished) {
      EvalDone d;
      d.ticket = job_to_ticket.at(f.id);
      job_to_ticket.erase(f.id);
      d.finish_time = f.finish_time;
      d.objective = f.output.objective;
      d.train_seconds = f.output.train_seconds;
      d.failed = f.output.failed;
      d.timed_out = f.output.timed_out;
      d.attempts = f.attempts;
      d.degraded = f.output.degraded;
      d.final_world = f.output.final_world;
      done.push_back(d);
    }
    const auto next = step(done, executor_->now());
    if (executor_->now() >= cfg_.wall_time_seconds) break;
    if (next.empty()) continue;
    submit_tickets(next);
    obs::record_counter_sample(
        "search.in_flight", executor_->now(),
        static_cast<double>(executor_->num_in_flight()));
  }

  SearchResult res = result();
  res.utilization = executor_->utilization();
  return res;
}

namespace {

constexpr const char* kSearchStateHeader = "agebo-search v1";

void write_ticket(std::ostream& os, const EvalTicket& t) {
  os << "ticket " << t.ticket << ' ' << t.fidelity << ' ' << t.width << ' '
     << t.timeout_seconds << ' ' << t.max_retries << ' '
     << state::encode_token(t.tag) << ' ';
  state::write_vector(os, t.config.hparams);
  os << ' ';
  state::write_vector(os, t.config.genome);
  os << '\n';
}

EvalTicket read_ticket(std::istream& is, const std::string& what) {
  state::expect_key(is, "ticket", what);
  EvalTicket t;
  std::string tag;
  if (!(is >> t.ticket >> t.fidelity >> t.width >> t.timeout_seconds >>
        t.max_retries >> tag)) {
    state::fail(what, "truncated ticket");
  }
  t.tag = state::decode_token(tag);
  t.config.hparams = state::read_vector<double>(is, what);
  t.config.genome = state::read_vector<int>(is, what);
  return t;
}

}  // namespace

void AgeboSearch::save_state(std::ostream& os) const {
  os.precision(17);
  os << kSearchStateHeader << '\n';
  os << "fingerprint " << cfg_.population_size << ' ' << cfg_.sample_size << ' '
     << (cfg_.use_bo ? 1 : 0) << ' '
     << (cfg_.replacement == Replacement::kAging ? 0 : 1) << ' '
     << (cfg_.random_search ? 1 : 0) << ' ' << cfg_.hp_space.size() << ' '
     << cfg_.wall_time_seconds << '\n';
  state::write_rng(os, "rng", rng_.state());
  os << '\n';
  os << "best " << best_so_far_ << '\n';
  os << "next-ticket " << next_ticket_ << '\n';
  os << "started " << (started_ ? 1 : 0) << '\n';
  os << "population " << population_.size() << '\n';
  for (const Member& m : population_) {
    os << "member " << m.objective << ' ';
    state::write_vector(os, m.genome);
    os << '\n';
  }
  os << "history " << history_.size() << '\n';
  for (const EvalRecord& rec : history_) {
    // The CSV row contains no spaces, so it reads back as one token.
    os << "row ";
    write_history_row(rec, os);
    os << '\n';
  }
  os << "outstanding " << outstanding_.size() << '\n';
  for (const auto& [id, t] : outstanding_) {
    (void)id;
    write_ticket(os, t);
  }
  // "bo 1" marks the legacy centralized-optimizer blob, which is read
  // (load_state) but no longer written. Every BO search writes the
  // sharded-BO section instead; AgE writes none, so a search never reads
  // past its own blob when the service embeds several in one stream.
  os << "bo 0\n";
  if (bo_) {
    os << "shards 1\n";
    bo_->save_state(os);
    os << "ticket-shards " << ticket_shard_.size() << '\n';
    for (const auto& [id, shard] : ticket_shard_) {
      os << "ts " << id << ' ' << shard << '\n';
    }
  }
}

void AgeboSearch::load_state(std::istream& is) {
  const std::string what = "AgeboSearch::load_state";
  if (started_ || !history_.empty()) {
    throw std::logic_error(what + ": search already driven");
  }
  std::string line;
  if (!std::getline(is, line) || line != kSearchStateHeader) {
    state::fail(what, "bad header");
  }
  state::expect_key(is, "fingerprint", what);
  std::size_t pop = 0, sample = 0, hp_dims = 0;
  int use_bo = 0, replacement = 0, random_search = 0;
  double wall = 0.0;
  if (!(is >> pop >> sample >> use_bo >> replacement >> random_search >>
        hp_dims >> wall)) {
    state::fail(what, "truncated fingerprint");
  }
  if (pop != cfg_.population_size || sample != cfg_.sample_size ||
      (use_bo != 0) != cfg_.use_bo ||
      (replacement != 0) != (cfg_.replacement == Replacement::kWorst) ||
      (random_search != 0) != cfg_.random_search ||
      hp_dims != cfg_.hp_space.size() || wall != cfg_.wall_time_seconds) {
    state::fail(what, "checkpoint was written by a differently-configured search");
  }
  rng_.set_state(state::read_rng(is, "rng", what));
  state::expect_key(is, "best", what);
  if (!(is >> best_so_far_)) state::fail(what, "truncated best");
  state::expect_key(is, "next-ticket", what);
  if (!(is >> next_ticket_)) state::fail(what, "truncated next-ticket");
  started_ = state::read_flag(is, "started", what);

  const std::size_t n_pop = state::read_count(is, "population", what);
  population_.clear();
  for (std::size_t i = 0; i < n_pop; ++i) {
    state::expect_key(is, "member", what);
    Member m;
    if (!(is >> m.objective)) state::fail(what, "truncated member");
    m.genome = state::read_vector<int>(is, what);
    space_->validate(m.genome);
    population_.push_back(std::move(m));
  }

  const std::size_t n_hist = state::read_count(is, "history", what);
  history_.clear();
  for (std::size_t i = 0; i < n_hist; ++i) {
    state::expect_key(is, "row", what);
    std::string row;
    if (!(is >> row)) state::fail(what, "truncated history row");
    history_.push_back(parse_history_row(
        row, *space_, history_row_format(row, "checkpoint"),
        "checkpoint row " + std::to_string(i)));
  }

  const std::size_t n_out = state::read_count(is, "outstanding", what);
  outstanding_.clear();
  for (std::size_t i = 0; i < n_out; ++i) {
    EvalTicket t = read_ticket(is, what);
    const std::uint64_t id = t.ticket;
    outstanding_.emplace(id, std::move(t));
  }

  if (state::read_flag(is, "bo", what)) {
    // Frozen reader for the legacy centralized blob (rng + tell log),
    // written while one-shard searches still ran a bare optimizer. It
    // restores the one shard to the state an uninterrupted run holds, and
    // every outstanding ticket belongs to that shard.
    if (!bo_ || bo_->shards() != 1) {
      state::fail(what, "BO flag mismatch with this search's config");
    }
    const Rng::State bo_rng = state::read_rng(is, "rng", what);
    const std::size_t n_tells = state::read_count(is, "tells", what);
    std::vector<bo::Point> points;
    std::vector<double> objectives;
    points.reserve(n_tells);
    objectives.reserve(n_tells);
    for (std::size_t i = 0; i < n_tells; ++i) {
      state::expect_key(is, "tell", what);
      double obj = 0.0;
      if (!(is >> obj)) state::fail(what, "truncated tell");
      objectives.push_back(obj);
      points.push_back(state::read_vector<double>(is, what));
    }
    bo_->restore_one_shard(points, objectives, bo_rng);
    ticket_shard_.clear();
    for (const auto& [id, t] : outstanding_) {
      (void)t;
      ticket_shard_.emplace(id, 0);
    }
  } else if (bo_) {
    if (!state::read_flag(is, "shards", what)) {
      state::fail(what, "missing sharded-BO section");
    }
    bo_->load_state(is);
    const std::size_t n_ts = state::read_count(is, "ticket-shards", what);
    ticket_shard_.clear();
    for (std::size_t i = 0; i < n_ts; ++i) {
      state::expect_key(is, "ts", what);
      std::uint64_t id = 0;
      std::size_t shard = 0;
      if (!(is >> id >> shard) || shard >= bo_->shards()) {
        state::fail(what, "bad ticket shard");
      }
      ticket_shard_.emplace(id, shard);
    }
    if (ticket_shard_.size() != outstanding_.size()) {
      state::fail(what, "ticket-shard map does not cover outstanding tickets");
    }
  }
  if (best_so_far_ > 0.0) m_best_.set(best_so_far_);
}

}  // namespace agebo::core

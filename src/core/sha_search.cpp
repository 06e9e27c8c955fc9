#include "core/sha_search.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "common/stats.hpp"
#include "core/history_io.hpp"
#include "common/state_io.hpp"

namespace agebo::core {

ShaJointSearch::ShaJointSearch(const nas::SearchSpace& space,
                               ShaJointConfig cfg)
    : space_(&space), cfg_(std::move(cfg)), rng_(cfg_.seed) {
  if (cfg_.eta < 2) throw std::invalid_argument("ShaJointConfig: eta < 2");
  if (cfg_.rungs == 0) throw std::invalid_argument("ShaJointConfig: zero rungs");
  if (cfg_.bracket_size == 0) {
    throw std::invalid_argument("ShaJointConfig: empty bracket");
  }
  if (cfg_.hp_space.size() == 0) cfg_.hp_space = bo::ParamSpace::paper_space();
}

ShaJointSearch::ShaJointSearch(const nas::SearchSpace& space,
                               eval::Evaluator& evaluator,
                               exec::Executor& executor, ShaJointConfig cfg)
    : ShaJointSearch(space, std::move(cfg)) {
  evaluator_ = &evaluator;
  executor_ = &executor;
}

void ShaJointSearch::sample_bracket() {
  // Sample a fresh bracket from the joint space H_a x H_m.
  survivors_.clear();
  survivors_.reserve(cfg_.bracket_size);
  for (std::size_t i = 0; i < cfg_.bracket_size; ++i) {
    eval::ModelConfig config;
    config.genome = space_->random(rng_);
    config.hparams = cfg_.hp_space.sample(rng_);
    survivors_.push_back(std::move(config));
  }
  rung_ = 0;
}

std::vector<EvalTicket> ShaJointSearch::emit_rung() {
  const double fidelity = std::pow(
      static_cast<double>(cfg_.eta),
      static_cast<double>(rung_) - static_cast<double>(cfg_.rungs) + 1.0);
  scores_.assign(survivors_.size(), 0.0);
  collected_ = 0;
  std::vector<EvalTicket> out;
  out.reserve(survivors_.size());
  for (std::size_t i = 0; i < survivors_.size(); ++i) {
    EvalTicket t;
    t.ticket = next_ticket_++;
    t.config = survivors_[i];
    t.fidelity = fidelity;
    t.tag = "sha-rung-" + std::to_string(rung_);
    outstanding_.emplace(t.ticket, t);
    ticket_index_.emplace(t.ticket, i);
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<EvalTicket> ShaJointSearch::start() {
  if (started_) throw std::logic_error("ShaJointSearch::start: already started");
  started_ = true;
  if (cfg_.wall_time_seconds <= 0.0) {
    complete_ = true;
    return {};
  }
  sample_bracket();
  return emit_rung();
}

std::vector<EvalTicket> ShaJointSearch::step(const std::vector<EvalDone>& done,
                                             double now) {
  if (!started_) throw std::logic_error("ShaJointSearch::step before start");
  if (complete_) return {};
  const bool full = rung_ + 1 == cfg_.rungs;
  for (const auto& d : done) {
    const auto it = ticket_index_.find(d.ticket);
    if (it == ticket_index_.end()) {
      throw std::logic_error("ShaJointSearch::step: unknown ticket " +
                             std::to_string(d.ticket));
    }
    const std::size_t idx = it->second;
    ticket_index_.erase(it);
    outstanding_.erase(d.ticket);
    scores_[idx] = d.failed ? 0.0 : d.objective;
    ++collected_;
    if (full && d.finish_time <= cfg_.wall_time_seconds) {
      EvalRecord rec;
      rec.index = history_.size();
      rec.finish_time = d.finish_time;
      rec.objective = scores_[idx];
      rec.train_seconds = d.train_seconds;
      rec.failed = d.failed;
      rec.attempts = d.attempts;
      rec.degraded = d.degraded;
      rec.final_world = d.final_world;
      rec.config = survivors_[idx];
      history_.push_back(rec);
    }
  }
  // The rung barrier the paper criticizes: nothing new is emitted until
  // every job of the rung has landed.
  if (collected_ < survivors_.size()) return {};

  if (full) {
    // Bracket finished at full fidelity; budget permitting, start another.
    if (now >= cfg_.wall_time_seconds) {
      complete_ = true;
      return {};
    }
    sample_bracket();
    return emit_rung();
  }

  // Promote the top 1/eta to the next rung.
  const auto order = argsort_desc(scores_);
  const std::size_t keep = std::max<std::size_t>(1, survivors_.size() / cfg_.eta);
  std::vector<eval::ModelConfig> next;
  next.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    next.push_back(std::move(survivors_[order[i]]));
  }
  survivors_ = std::move(next);
  rung_ += 1;
  if (now >= cfg_.wall_time_seconds) {
    complete_ = true;
    return {};
  }
  return emit_rung();
}

SearchResult ShaJointSearch::result() const {
  SearchResult r;
  r.history = history_;
  finalize_result(r);
  return r;
}

SearchResult ShaJointSearch::run() {
  if (executor_ == nullptr || evaluator_ == nullptr) {
    throw std::logic_error("ShaJointSearch::run: constructed in pump mode");
  }
  std::unordered_map<std::uint64_t, std::uint64_t> job_to_ticket;
  auto submit_tickets = [&](const std::vector<EvalTicket>& tickets) {
    for (const auto& t : tickets) {
      eval::Evaluator* evaluator = evaluator_;
      exec::JobSpec spec;
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

  submit_tickets(start());
  while (!complete_) {
    const auto finished = executor_->get_finished(true);
    if (finished.empty()) break;  // executor drained unexpectedly
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
    submit_tickets(step(done, executor_->now()));
  }

  SearchResult res = result();
  res.utilization = executor_->utilization();
  return res;
}

namespace {
constexpr const char* kShaStateHeader = "sha-search v1";
}  // namespace

void ShaJointSearch::save_state(std::ostream& os) const {
  os.precision(17);
  os << kShaStateHeader << '\n';
  os << "fingerprint " << cfg_.bracket_size << ' ' << cfg_.eta << ' '
     << cfg_.rungs << ' ' << cfg_.hp_space.size() << ' '
     << cfg_.wall_time_seconds << '\n';
  state::write_rng(os, "rng", rng_.state());
  os << '\n';
  os << "next-ticket " << next_ticket_ << '\n';
  os << "started " << (started_ ? 1 : 0) << '\n';
  os << "complete " << (complete_ ? 1 : 0) << '\n';
  os << "rung " << rung_ << '\n';
  os << "collected " << collected_ << '\n';
  os << "survivors " << survivors_.size() << '\n';
  for (const auto& config : survivors_) {
    os << "config ";
    state::write_vector(os, config.hparams);
    os << ' ';
    state::write_vector(os, config.genome);
    os << '\n';
  }
  os << "scores " << scores_.size();
  for (const double s : scores_) os << ' ' << s;
  os << '\n';
  os << "history " << history_.size() << '\n';
  for (const EvalRecord& rec : history_) {
    os << "row ";
    write_history_row(rec, os);
    os << '\n';
  }
  os << "outstanding " << outstanding_.size() << '\n';
  for (const auto& [id, t] : outstanding_) {
    os << "ticket " << id << ' ' << ticket_index_.at(id) << ' ' << t.fidelity
       << ' ' << state::encode_token(t.tag) << ' ';
    state::write_vector(os, t.config.hparams);
    os << ' ';
    state::write_vector(os, t.config.genome);
    os << '\n';
  }
}

void ShaJointSearch::load_state(std::istream& is) {
  const std::string what = "ShaJointSearch::load_state";
  if (started_ || !history_.empty()) {
    throw std::logic_error(what + ": search already driven");
  }
  std::string line;
  if (!std::getline(is, line) || line != kShaStateHeader) {
    state::fail(what, "bad header");
  }
  state::expect_key(is, "fingerprint", what);
  std::size_t bracket = 0, eta = 0, rungs = 0, hp_dims = 0;
  double wall = 0.0;
  if (!(is >> bracket >> eta >> rungs >> hp_dims >> wall)) {
    state::fail(what, "truncated fingerprint");
  }
  if (bracket != cfg_.bracket_size || eta != cfg_.eta || rungs != cfg_.rungs ||
      hp_dims != cfg_.hp_space.size() || wall != cfg_.wall_time_seconds) {
    state::fail(what, "checkpoint was written by a differently-configured search");
  }
  rng_.set_state(state::read_rng(is, "rng", what));
  state::expect_key(is, "next-ticket", what);
  if (!(is >> next_ticket_)) state::fail(what, "truncated next-ticket");
  started_ = state::read_flag(is, "started", what);
  complete_ = state::read_flag(is, "complete", what);
  state::expect_key(is, "rung", what);
  if (!(is >> rung_)) state::fail(what, "truncated rung");
  state::expect_key(is, "collected", what);
  if (!(is >> collected_)) state::fail(what, "truncated collected");

  const std::size_t n_survivors = state::read_count(is, "survivors", what);
  survivors_.clear();
  for (std::size_t i = 0; i < n_survivors; ++i) {
    state::expect_key(is, "config", what);
    eval::ModelConfig config;
    config.hparams = state::read_vector<double>(is, what);
    config.genome = state::read_vector<int>(is, what);
    space_->validate(config.genome);
    survivors_.push_back(std::move(config));
  }

  const std::size_t n_scores = state::read_count(is, "scores", what);
  scores_.assign(n_scores, 0.0);
  for (double& s : scores_) {
    if (!(is >> s)) state::fail(what, "truncated scores");
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
  ticket_index_.clear();
  for (std::size_t i = 0; i < n_out; ++i) {
    state::expect_key(is, "ticket", what);
    EvalTicket t;
    std::size_t idx = 0;
    std::string tag;
    if (!(is >> t.ticket >> idx >> t.fidelity >> tag)) {
      state::fail(what, "truncated ticket");
    }
    t.tag = state::decode_token(tag);
    t.config.hparams = state::read_vector<double>(is, what);
    t.config.genome = state::read_vector<int>(is, what);
    ticket_index_.emplace(t.ticket, idx);
    const std::uint64_t id = t.ticket;
    outstanding_.emplace(id, std::move(t));
  }
}

}  // namespace agebo::core

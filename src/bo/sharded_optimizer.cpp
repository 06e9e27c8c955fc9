#include "bo/sharded_optimizer.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/state_io.hpp"

namespace agebo::bo {

namespace {

constexpr const char* kWhat = "ShardedBo::load_state";

[[noreturn]] void bad_state(const std::string& detail) {
  state::fail(kWhat, detail);
}

/// One told observation: "<key> <objective> <n> v0 v1 ...".
void write_item(std::ostream& os, const char* key, double objective,
                const Point& p) {
  os << key << ' ' << objective << ' ';
  state::write_vector(os, p);
  os << '\n';
}

void read_item(std::istream& is, const char* key, double& objective,
               Point& point) {
  state::expect_key(is, key, kWhat);
  if (!(is >> objective)) bad_state("truncated tell");
  point = state::read_vector<double>(is, kWhat);
}

}  // namespace

ShardedBo::ShardedBo(ParamSpace space, ShardedBoConfig cfg)
    : space_(std::move(space)), cfg_(cfg) {
  if (cfg_.shards == 0) throw std::invalid_argument("ShardedBo: zero shards");
  shards_.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    BoConfig bo = cfg_.bo;
    bo.seed = cfg_.bo.seed + 1000003ULL * s;
    shards_.push_back(std::make_unique<Shard>(
        space_, bo, cfg_.bo.seed * 8191ULL + 101ULL + s));
    shards_.back()->consumed.assign(cfg_.shards, 0);
  }
  auto& reg = obs::Registry::global();
  m_ask_ = reg.histogram("bo.shard.ask_seconds");
  m_tell_ = reg.histogram("bo.shard.tell_seconds");
  m_merge_ = reg.histogram("bo.shard.merge_seconds");
  m_depth_ = reg.gauge("bo.shard.queue_depth");
}

ShardedBo::~ShardedBo() {
  for (auto& s : shards_) s->queue.discard();
}

void ShardedBo::enqueue_tell(std::size_t shard, Point point, double objective) {
  shards_.at(shard)->queue.push(TellItem{std::move(point), objective});
}

void ShardedBo::ingest(Shard& s) {
  m_depth_.set(static_cast<double>(s.queue.approx_size()));
  auto items = s.queue.drain();
  if (items.empty()) return;
  obs::ScopedLatency lat(m_tell_);
  std::vector<Point> points;
  std::vector<double> objectives;
  points.reserve(items.size());
  objectives.reserve(items.size());
  for (auto& item : items) {
    points.push_back(item.point);
    objectives.push_back(item.objective);
  }
  // One batched tell, exactly like the centralized manager's per-step tell
  // — at shards=1 this reproduces its call sequence verbatim.
  s.opt.tell(points, objectives);
  for (auto& item : items) s.local_log.push_back(std::move(item));
  s.since_gossip += points.size();
}

void ShardedBo::gossip(std::size_t shard) {
  Shard& s = *shards_[shard];
  if (cfg_.gossip_every == 0 || shards_.size() < 2) return;
  if (s.since_gossip < cfg_.gossip_every) return;
  obs::ScopedLatency lat(m_merge_);
  const std::size_t fanout =
      std::min(cfg_.gossip_fanout, shards_.size() - 1);
  for (std::size_t f = 0; f < fanout; ++f) {
    // Deterministic peer choice: the schedule is a pure function of the
    // gossip rng's seed and the shard's merge history.
    std::size_t peer = s.gossip_rng.index(shards_.size() - 1);
    if (peer >= shard) ++peer;  // skip self
    const Shard& p = *shards_[peer];
    const std::size_t from = s.consumed[peer];
    if (from >= p.local_log.size()) continue;
    std::vector<Point> points;
    std::vector<double> objectives;
    points.reserve(p.local_log.size() - from);
    for (std::size_t i = from; i < p.local_log.size(); ++i) {
      points.push_back(p.local_log[i].point);
      objectives.push_back(p.local_log[i].objective);
    }
    s.opt.tell(points, objectives);
    s.consumed[peer] = p.local_log.size();
  }
  s.since_gossip = 0;
}

std::vector<Point> ShardedBo::ask(std::size_t shard, std::size_t k) {
  Shard& s = *shards_.at(shard);
  ingest(s);
  gossip(shard);
  obs::ScopedLatency lat(m_ask_);
  return s.opt.ask(k);
}

void ShardedBo::drain(std::size_t shard) {
  ingest(*shards_.at(shard));
  gossip(shard);
}

std::size_t ShardedBo::n_observed(std::size_t shard) const {
  return shards_.at(shard)->opt.n_observed();
}

std::size_t ShardedBo::n_local(std::size_t shard) const {
  return shards_.at(shard)->local_log.size();
}

const AskTellOptimizer& ShardedBo::optimizer(std::size_t shard) const {
  return shards_.at(shard)->opt;
}

void ShardedBo::save_state(std::ostream& os) const {
  for (const auto& s : shards_) {
    if (s->queue.approx_size() != 0) {
      throw std::logic_error(
          "ShardedBo::save_state: undrained tell queue (call drain first)");
    }
  }
  os.precision(17);
  os << "sharded-bo v1\n";
  os << "config " << shards_.size() << ' ' << cfg_.gossip_every << ' '
     << cfg_.gossip_fanout << '\n';
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    os << "shard " << i << '\n';
    state::write_rng(os, "rng", s.opt.rng_state());
    os << '\n';
    const auto& points = s.opt.tell_log_points();
    const auto& objectives = s.opt.tell_log_objectives();
    os << "tells " << points.size() << '\n';
    for (std::size_t t = 0; t < points.size(); ++t) {
      write_item(os, "t", objectives[t], points[t]);
    }
    os << "local " << s.local_log.size() << '\n';
    for (const TellItem& item : s.local_log) {
      write_item(os, "l", item.objective, item.point);
    }
    os << "consumed " << s.consumed.size();
    for (const std::size_t c : s.consumed) os << ' ' << c;
    os << '\n';
    os << "since " << s.since_gossip << '\n';
    state::write_rng(os, "grng", s.gossip_rng.state());
    os << '\n';
    const auto fit = s.opt.incremental_state();
    os << "fits " << fit.trees.size();
    for (const auto& [end, salt] : fit.trees) os << ' ' << end << ' ' << salt;
    os << ' ' << fit.next_rotate << ' ' << fit.next_salt << ' '
       << fit.fitted_tells << '\n';
  }
}

void ShardedBo::load_state(std::istream& is) {
  state::expect_key(is, "sharded-bo", kWhat);
  state::expect_key(is, "v1", kWhat);
  const std::size_t n_shards = state::read_count(is, "config", kWhat);
  std::size_t gossip_every = 0, fanout = 0;
  if (!(is >> gossip_every >> fanout)) bad_state("truncated config");
  if (n_shards != shards_.size() || gossip_every != cfg_.gossip_every ||
      fanout != cfg_.gossip_fanout) {
    bad_state("checkpoint was written by a differently-configured ShardedBo");
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    if (state::read_count(is, "shard", kWhat) != i) {
      bad_state("missing shard " + std::to_string(i));
    }
    const Rng::State rng = state::read_rng(is, "rng", kWhat);
    const std::size_t n_tells = state::read_count(is, "tells", kWhat);
    std::vector<Point> points(n_tells);
    std::vector<double> objectives(n_tells);
    for (std::size_t t = 0; t < n_tells; ++t) {
      read_item(is, "t", objectives[t], points[t]);
    }
    s.opt.restore(points, objectives, rng);
    s.local_log.assign(state::read_count(is, "local", kWhat), {});
    for (TellItem& item : s.local_log) {
      read_item(is, "l", item.objective, item.point);
    }
    if (state::read_count(is, "consumed", kWhat) != shards_.size()) {
      bad_state("consumed count does not match the shard count");
    }
    for (std::size_t& c : s.consumed) {
      if (!(is >> c)) bad_state("truncated consumed");
    }
    s.since_gossip = state::read_count(is, "since", kWhat);
    s.gossip_rng.set_state(state::read_rng(is, "grng", kWhat));
    AskTellOptimizer::IncrementalFitState fit;
    fit.trees.assign(state::read_count(is, "fits", kWhat), {0, 0});
    for (auto& [end, salt] : fit.trees) {
      if (!(is >> end >> salt)) bad_state("truncated fits");
    }
    if (!(is >> fit.next_rotate >> fit.next_salt >> fit.fitted_tells)) {
      bad_state("truncated fit counters");
    }
    s.opt.restore_incremental_state(fit);
  }
}

void ShardedBo::restore_one_shard(const std::vector<Point>& points,
                                  const std::vector<double>& objectives,
                                  const Rng::State& rng) {
  if (shards_.size() != 1 || !shards_[0]->local_log.empty()) {
    throw std::logic_error(
        "ShardedBo::restore_one_shard: needs a fresh one-shard instance");
  }
  Shard& s = *shards_[0];
  s.opt.restore(points, objectives, rng);
  s.local_log.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    s.local_log.push_back(TellItem{points[i], objectives[i]});
  }
  s.since_gossip = points.size();
}

}  // namespace agebo::bo

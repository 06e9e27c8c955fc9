// Token-level helpers for the line-oriented checkpoint dialect every
// durable component shares: the pumped searchers
// (AgeboSearch/ShaJointSearch::save_state), the BO shards
// (bo::ShardedBo::save_state), the simulated executor's snapshot and the
// campaign service (src/svc/checkpoint). Space-separated tokens, doubles
// at the writer's stream precision (max_digits10, so state round-trips
// bit-exactly), "-" as the empty string sentinel, and error messages that
// name the component being parsed.
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace agebo::state {

/// Throw std::runtime_error("<what>: <detail>").
[[noreturn]] void fail(const std::string& what, const std::string& detail);

/// Read one token and require it to equal `key` (section framing).
void expect_key(std::istream& is, const char* key, const std::string& what);

/// Read "<key> <count>".
std::size_t read_count(std::istream& is, const char* key,
                       const std::string& what);

/// Read "<key> <flag01>".
bool read_flag(std::istream& is, const char* key, const std::string& what);

/// Empty strings are written as "-" (tokens themselves never contain
/// whitespace: tags and campaign names are validated at creation).
std::string encode_token(const std::string& s);
std::string decode_token(const std::string& s);

/// "<n> v0 v1 ..." vectors (genomes, hyperparameter points, durations).
template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& v) {
  os << v.size();
  for (const T& x : v) os << ' ' << x;
}

template <typename T>
std::vector<T> read_vector(std::istream& is, const std::string& what) {
  std::size_t n = 0;
  if (!(is >> n)) fail(what, "bad vector length");
  std::vector<T> v(n, T{});
  for (T& x : v) {
    if (!(is >> x)) fail(what, "truncated vector");
  }
  return v;
}

/// "<key> s0 s1 s2 s3 cached_normal has_cached" — the full sampler position.
void write_rng(std::ostream& os, const char* key, const Rng::State& st);
Rng::State read_rng(std::istream& is, const char* key, const std::string& what);

}  // namespace agebo::state

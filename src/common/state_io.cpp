#include "common/state_io.hpp"

#include <stdexcept>

namespace agebo::state {

void fail(const std::string& what, const std::string& detail) {
  throw std::runtime_error(what + ": " + detail);
}

void expect_key(std::istream& is, const char* key, const std::string& what) {
  std::string token;
  if (!(is >> token)) fail(what, std::string("truncated before \"") + key + "\"");
  if (token != key) {
    fail(what, "expected \"" + std::string(key) + "\", got \"" + token + "\"");
  }
}

std::size_t read_count(std::istream& is, const char* key,
                       const std::string& what) {
  expect_key(is, key, what);
  std::size_t n = 0;
  if (!(is >> n)) fail(what, std::string("bad count after \"") + key + "\"");
  return n;
}

bool read_flag(std::istream& is, const char* key, const std::string& what) {
  expect_key(is, key, what);
  int flag = 0;
  if (!(is >> flag) || (flag != 0 && flag != 1)) {
    fail(what, std::string("bad flag after \"") + key + "\"");
  }
  return flag != 0;
}

std::string encode_token(const std::string& s) { return s.empty() ? "-" : s; }
std::string decode_token(const std::string& s) { return s == "-" ? "" : s; }

void write_rng(std::ostream& os, const char* key, const Rng::State& st) {
  os << key << ' ' << st.s[0] << ' ' << st.s[1] << ' ' << st.s[2] << ' '
     << st.s[3] << ' ' << st.cached_normal << ' '
     << (st.has_cached_normal ? 1 : 0);
}

Rng::State read_rng(std::istream& is, const char* key,
                    const std::string& what) {
  expect_key(is, key, what);
  Rng::State st;
  int has = 0;
  if (!(is >> st.s[0] >> st.s[1] >> st.s[2] >> st.s[3] >> st.cached_normal >>
        has)) {
    fail(what, "truncated rng state");
  }
  st.has_cached_normal = has != 0;
  return st;
}

}  // namespace agebo::state

#include "stats.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace loadbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || !std::isfinite(values[hi])) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t request_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix(splitmix(seed) ^ (index * 0x632be59bd9b4e019ULL));
}

Stratified::Stratified(std::uint64_t seed)
    : offset_(static_cast<double>(splitmix(seed ^ 0x5bd1e995ULL) >> 11) * 0x1.0p-53) {}

double Stratified::at(int index) const {
  constexpr double kGolden = 0.6180339887498949;
  const double v = offset_ + kGolden * static_cast<double>(index);
  return v - std::floor(v);
}

void Digest::add(const std::string& text) {
  for (unsigned char c : text) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 0x100000001b3ULL;
}

void Digest::add(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  add(std::string(buf));
}

void Digest::add(std::int64_t v) { add(std::to_string(v)); }

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 1e9;
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace loadbench

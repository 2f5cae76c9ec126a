// Small numeric helpers shared by the load generator: percentiles, seeded input
// streams and the determinism digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace loadbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Linearly interpolated percentile (p in [0, 100]) of `values`; 100 is the
/// maximum. Empty input gives 0.
double percentile(std::vector<double> values, double p);

inline double median(const std::vector<double>& values) { return percentile(values, 50.0); }

/// Independent 64-bit seed for request `index` of a run seeded with `seed`.
std::uint64_t request_seed(std::uint64_t seed, std::uint64_t index);

/// Low-discrepancy stream in [0, 1): frac(offset + index * golden ratio),
/// with the offset drawn from the run seed. Any prefix of the stream covers
/// [0, 1) evenly, so a run's requests span the same parameter range for
/// every seed while the individual values still change with the seed.
class Stratified {
 public:
  explicit Stratified(std::uint64_t seed);
  double at(int index) const;

 private:
  double offset_ = 0.0;
};

/// FNV-1a digest over the rounded outputs of a run's first requests.
class Digest {
 public:
  void add(const std::string& text);
  /// Adds a double rounded to 9 significant digits.
  void add(double v);
  void add(std::int64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Shortest text that reads back as the same double; non-finite values are
/// written as 1e9 (a request that failed counts as missing every limit).
std::string json_number(double v);

}  // namespace loadbench

#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <thread>

#include "core/rng.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

int host_lanes() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n == 0 ? 1u : n, 1u, 4u));
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t hash_bytes(const void* data, std::size_t bytes,
                         std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void Checks::expect(const std::string& name, bool ok,
                    const std::string& detail) {
  entries_.push_back({name, ok, detail});
}

bool Checks::all_ok() const {
  return std::all_of(entries_.begin(), entries_.end(),
                     [](const Entry& e) { return e.ok; });
}

bool Checks::failed(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
    return e.name == name && !e.ok;
  });
}

void Checks::print() const {
  for (const Entry& e : entries_) {
    std::cout << "# check " << (e.ok ? "ok   " : "FAIL ") << e.name;
    if (!e.ok && !e.detail.empty()) std::cout << ": " << e.detail;
    std::cout << '\n';
  }
}

void print_config(const std::string& key, const std::string& value) {
  std::cout << "# config " << key << " = " << value << '\n';
}

/// GFLOP/s of bgl::ops::matmul at [m, k] x [k, n] on the current pool.
double gemm_gflops(std::int64_t m, std::int64_t k, std::int64_t n,
                   std::uint64_t seed) {
  bgl::Rng rng(seed);
  const bgl::Tensor a = bgl::Tensor::randn({m, k}, rng);
  const bgl::Tensor b = bgl::Tensor::randn({k, n}, rng);
  const double flops = 2.0 * static_cast<double>(m * k * n);
  // Repeat until ~20 ms per sample, take the median of 9 samples.
  int reps = 1;
  for (;;) {
    const double t = mono_now();
    for (int i = 0; i < reps; ++i) (void)bgl::ops::matmul(a, b);
    if (mono_now() - t > 0.02 || reps > (1 << 20)) break;
    reps *= 2;
  }
  std::vector<double> rates;
  for (int s = 0; s < 9; ++s) {
    const double t = mono_now();
    for (int i = 0; i < reps; ++i) (void)bgl::ops::matmul(a, b);
    rates.push_back(flops * reps / (mono_now() - t) / 1e9);
  }
  return quantile(rates, 0.5);
}

}  // namespace perfbench

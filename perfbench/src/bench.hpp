// Shared plumbing of the benchmark binary: run arguments, the result
// record, sample statistics, hashing and the property-check ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Monotonic-clock seconds at which the launcher spawned this process
  /// (CLOCK_MONOTONIC is system-wide, so the launcher and this process share
  /// it). setup_s runs from here; without --t0, from main()'s entry.
  double t0 = 0.0;
  /// Toy sizes for the self-test: every workload shrunk to run in seconds.
  bool toy = false;
  /// Self-test only: breaks one recorded output before the checks run, so
  /// the check guarding it must fire; "no_clip" instead trains without
  /// gradient clipping. Empty in real runs.
  std::string sabotage;
};

/// Seconds on the monotonic clock shared with the launcher.
inline double mono_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Hardware threads, capped at 4: the workloads fill at most 4 cores, so
/// they do the same work on any host with at least that many.
int host_lanes();

/// Nearest-rank-interpolated quantile (the same definition as numpy's
/// default "linear"), over a copy of the samples. 0 when empty.
double quantile(std::vector<double> xs, double q);

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

/// FNV-1a over raw bytes: bitwise identity of tensors, never closeness.
std::uint64_t hash_bytes(const void* data, std::size_t bytes,
                         std::uint64_t h = 1469598103934665603ull);

/// Named pass/fail results of the property checks of one run.
class Checks {
 public:
  /// Records one check; `detail` explains a failure.
  void expect(const std::string& name, bool ok, const std::string& detail = "");
  [[nodiscard]] bool all_ok() const;
  /// True when a check with this name was recorded and failed.
  [[nodiscard]] bool failed(const std::string& name) const;
  /// One line per check, "ok"/"FAIL", printed before the result line.
  void print() const;

 private:
  struct Entry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> entries_;
};

/// What a workload hands back to main(): counts, metrics and checks.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// name -> value; units live with the launcher's metric table.
  std::map<std::string, double> metrics;
  Checks checks;
  /// Trace-clock window of the timed phase (traced runs only) and the
  /// number of steps × ranks inside it, so the launcher can turn span
  /// self time into per-step figures.
  std::int64_t trace_begin_us = 0;
  std::int64_t trace_end_us = 0;
  std::int64_t trace_rank_steps = 0;
};

/// GFLOP/s of ops::matmul at [m, k] x [k, n] on the current compute pool
/// (median of 9 samples of ~20 ms).
double gemm_gflops(std::int64_t m, std::int64_t k, std::int64_t n,
                   std::uint64_t seed);

/// Effective configuration of a run, printed once as "# config ..." lines.
void print_config(const std::string& key, const std::string& value);

Result run_train(const Args& args);
Result run_serve(const Args& args);

}  // namespace perfbench

// Benchmark binary: runs one workload and prints its result as the last
// line of stdout (one JSON object), or runs the self-test of the checks.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--t0 <monotonic s>]
//   perfbench --selftest
//
// perfbench/run.py builds this binary, scrubs the environment and adds the
// span self times of traced runs; use it rather than calling this directly.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

const std::vector<std::string> kWorkloads = {"train_moda", "train_single",
                                             "train_ft_tcp", "serve_mixed"};

/// Drops every BGL_* variable except BGL_TRACE, which the launcher sets for
/// traced runs: knobs in the caller's environment must not change what is
/// measured.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("BGL_", 0) != 0) continue;
    const std::string name = kv.substr(0, kv.find('='));
    if (name != "BGL_TRACE") names.push_back(name);
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

Result run(const Args& args) {
  return args.workload == "serve_mixed" ? run_serve(args) : run_train(args);
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.checks.all_ok() ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}, \"trace\": {\"begin_us\": %lld, \"end_us\": %lld, "
              "\"rank_steps\": %lld}}\n",
              static_cast<long long>(r.trace_begin_us),
              static_cast<long long>(r.trace_end_us),
              static_cast<long long>(r.trace_rank_steps));
  std::fflush(stdout);
}

/// Every workload at toy size must pass its checks, and every check must
/// fire on a result broken the way the fault it guards against would.
int selftest() {
  int failures = 0;
  auto report = [&](const std::string& what, bool ok) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
    if (!ok) ++failures;
  };
  for (const std::string& w : kWorkloads) {
    Args a;
    a.workload = w;
    a.seed = 7;
    a.seconds = 0.5;
    a.toy = true;
    const Result r = run(a);
    r.checks.print();
    report("toy " + w + " passes its checks (" + std::to_string(r.failed) +
               " of " + std::to_string(r.attempted) + " operations failed)",
           r.checks.all_ok() && r.attempted > 0);
  }
  {
    // Without gradient clipping the dense parameters stay replicated on
    // every rank, so no world-replica operation may fail.
    Args a;
    a.workload = "train_moda";
    a.seed = 7;
    a.seconds = 0.3;
    a.toy = true;
    a.sabotage = "no_clip";
    const Result r = run(a);
    report("toy train_moda without clipping fails no operation",
           r.checks.all_ok() && r.attempted > 0 && r.failed == 0);
  }
  struct Breakage {
    const char* workload;
    const char* sabotage;
    std::vector<const char*> must_fire;
  };
  const std::vector<Breakage> breakages = {
      {"train_moda", "copy_expert",
       {"train.experts_distinct"}},
      {"train_moda", "lose_row", {"train.dispatch_rows_conserved"}},
      {"train_single", "perturb_loss", {"train.first_steps_bitwise_1_lane"}},
      {"train_ft_tcp", "perturb_loss", {"train.first_steps_bitwise_inproc"}},
      {"train_moda", "raise_loss", {"train.loss_falls"}},
      {"train_moda", "sink_loss", {"train.loss_above_floor"}},
      {"train_moda", "diverge_replica",
       {"train.dp_replicas_dense_equal", "train.dp_replicas_shard_equal"}},
      {"serve_mixed", "flip_token", {"serve.oracle_match"}},
      {"serve_mixed", "flip_prompt", {"serve.prompts_intact"}},
      {"serve_mixed", "drop_token", {"serve.all_complete"}},
      {"serve_mixed", "token_out_of_vocab", {"serve.tokens_in_vocab"}},
      {"serve_mixed", "miscount_kv", {"serve.kv_allocs_match"}},
      {"serve_mixed", "undercount_allocs", {"serve.kv_allocator_counts"}},
      {"serve_mixed", "leak_kv", {"serve.kv_all_freed"}},
  };
  for (const Breakage& b : breakages) {
    Args a;
    a.workload = b.workload;
    a.seed = 7;
    a.seconds = 0.3;
    a.toy = true;
    a.sabotage = b.sabotage;
    const Result r = run(a);
    bool fired = !r.checks.all_ok();
    for (const char* name : b.must_fire) fired = fired && r.checks.failed(name);
    report(std::string(b.workload) + " " + b.sabotage + " is caught", fired);
  }
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << '\n';
  return failures == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Args& args, bool& selftest_mode) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      selftest_mode = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--t0") {
      args.t0 = std::atof(v.c_str());
    } else {
      return false;
    }
  }
  if (selftest_mode) return true;
  bool known = false;
  for (const std::string& w : kWorkloads) known = known || w == args.workload;
  return known && args.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.t0 = mono_now();
  scrub_environment();
  bool selftest_mode = false;
  if (!parse(argc, argv, args, selftest_mode)) {
    std::cerr << "usage: perfbench --workload <train_moda|train_single|"
                 "train_ft_tcp|serve_mixed> --seed <n> --seconds <s> "
                 "--trace <0|1> [--t0 <s>] | --selftest\n";
    return 2;
  }
  if (selftest_mode) return selftest();
  try {
    const Result r = run(args);
    bgl::obs::flush_trace();
    r.checks.print();
    print_result(r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

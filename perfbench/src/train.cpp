// The three MoDa training workloads: train_moda, train_single and
// train_ft_tcp. Each run builds a world and a DistMoETransformerLM, takes
// `warmup` untimed steps (part of setup), then trains for the requested
// seconds in whole rounds. A round is `round_steps` steps followed by one
// world-replica operation: every rank hashes its dense parameters, which all
// ranks replicate, and the round fails when any two differ. Afterwards the
// run checks the trained state and replays the first steps under a second
// configuration that must give bitwise the same losses.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <iostream>
#include <set>

#include "checks.hpp"
#include "collectives/compressed.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/dist_trainer.hpp"
#include "parallel/dist_transformer.hpp"
#include "perf/perf_model.hpp"
#include "runtime/comm.hpp"
#include "train/data.hpp"
#include "train/optimizer.hpp"

namespace perfbench {
namespace {

using namespace bgl;

// The initial weights and the warmup data are fixed across seeds; the seed
// drives the data of the timed steps. So the state a run starts timing from,
// including any divergence of the world replicas, is the same for every seed.
constexpr std::uint64_t kModelSeed = 2022;
constexpr std::uint64_t kWarmupDataSeed = 2023;

struct TrainSpec {
  model::MoEModelConfig config;
  int ranks = 1;
  int ep = 1;
  int lanes = 1;
  std::int64_t global_batch = 32;  // sequences per step over all ranks
  double noise = 0.1;              // Markov stream noise
  double lr = 3e-3;
  std::string transport = "inproc";
  bool fault_tolerant = false;  // CRC framing + ack/retransmit
  bool compressed = false;      // bf16 gradient wire + int8 dispatch
  /// Untimed steps taken during setup, sized so setup is mostly steady
  /// compute rather than process and thread start-up.
  int warmup = 8;
  /// Timed steps per round; each round ends with a world-replica operation.
  int round_steps = 8;
  double clip_norm = 1.0;
  /// The warmup and the first `replay_steps` timed steps are replayed under
  /// a second configuration that must give bitwise the same losses.
  int replay_steps = 4;
  enum class Replay { kOneLane, kInproc } replay_under = Replay::kOneLane;
};

TrainSpec spec_for(const std::string& workload, bool toy) {
  TrainSpec s;
  model::MoEModelConfig& c = s.config;
  c.name = workload;
  c.vocab = 256;
  c.d_model = 64;
  c.n_layers = 2;
  c.n_heads = 4;
  c.seq_len = 32;
  c.d_ffn = 128;
  c.num_experts = 8;
  c.top_k = 2;
  c.capacity_factor = 1.25;
  c.aux_loss_weight = 1e-2;
  if (workload == "train_moda") {
    s.ranks = 4;
    s.ep = 2;
    s.lanes = 1;
  } else if (workload == "train_single") {
    s.ranks = 1;
    s.ep = 1;
    s.lanes = host_lanes();
    s.warmup = 4;
  } else {  // train_ft_tcp: a small model, so exchanges are a large share
    c.d_model = 32;
    c.d_ffn = 64;
    c.seq_len = 16;
    s.global_batch = 16;
    s.ranks = 4;
    s.ep = 2;
    s.lanes = 1;
    s.warmup = 16;
    s.transport = "tcp";
    s.fault_tolerant = true;
    s.compressed = true;
    s.replay_under = TrainSpec::Replay::kInproc;
  }
  if (toy) {
    c.d_model = 16;
    c.d_ffn = 32;
    c.seq_len = 8;
    c.vocab = 32;
    s.global_batch = 8;
    s.warmup = 2;
    s.round_steps = 2;
    s.replay_steps = 2;
  }
  return s;
}

/// What one World run hands back (rank 0's view plus per-rank records).
struct TrainRun {
  std::vector<double> losses;  // global loss per step, warmup included
  std::int64_t timed_steps = 0;
  double timed_s = 0.0;  // Σ step_s: the replica operations are left out
  std::int64_t rounds = 0;
  std::int64_t diverged_rounds = 0;  // world replicas differed at round end
  double setup_end = 0.0;  // mono_now() when the timed phase began
  std::vector<double> step_s;  // world step wall time, timed steps
  // [rank][timed step]
  std::vector<std::vector<model::StepPhaseTimes>> phases;
  std::vector<std::vector<std::int64_t>> recv;
  std::vector<std::vector<std::int64_t>> routed;
  std::int64_t warmup_routed = 0;  // Σ ranks, Σ warmup steps
  std::vector<RankDigest> digests;  // as of the last round's end
  std::vector<obs::MetricSnapshot> before;  // global registry
  std::vector<obs::MetricSnapshot> after;
  std::int64_t trace_begin_us = 0;
  std::int64_t trace_end_us = 0;
  double peak_rss = 0.0;
};

void hash_params(std::span<nn::Parameter* const> params, std::uint64_t& h) {
  for (const nn::Parameter* p : params) {
    const auto v = p->value.f32();
    h = hash_bytes(v.data(), v.size_bytes(), h);
  }
}

RankDigest digest_rank(parallel::DistMoETransformerLM& lm,
                       const parallel::MoDaLayout& layout, int rank) {
  RankDigest d;
  d.dp_index = layout.dp_index(rank);
  d.ep_index = layout.ep_index(rank);
  std::set<const nn::Parameter*> expert_params;
  d.shard = hash_bytes(nullptr, 0);
  for (std::size_t l = 0; l < lm.num_blocks(); ++l) {
    auto& moe = lm.moe_layer(l);
    for (int i = 0; i < moe.experts_per_rank(); ++i) {
      const auto params = moe.local_expert(i).parameters();
      std::uint64_t h = hash_bytes(nullptr, 0);
      hash_params(params, h);
      hash_params(params, d.shard);
      d.experts[{static_cast<int>(l), moe.global_expert_id(i)}] = h;
      expert_params.insert(params.begin(), params.end());
    }
  }
  std::vector<nn::Parameter*> dense;
  for (nn::Parameter* p : lm.parameters())
    if (expert_params.count(p) == 0) dense.push_back(p);
  d.dense = hash_bytes(nullptr, 0);
  hash_params(dense, d.dense);
  return d;
}

/// One training run: `warmup` steps, then whole rounds until
/// `timed_seconds` have passed. `timed_seconds` < 0 runs only the warmup
/// and `replay_steps` timed-phase steps, for the bitwise checks.
TrainRun run_world(const TrainSpec& spec, const std::string& transport,
                   std::uint64_t seed, double timed_seconds) {
  const int n = spec.ranks;
  const std::int64_t per_rank = spec.global_batch / n;
  TrainRun out;
  out.phases.resize(static_cast<std::size_t>(n));
  out.recv.resize(static_cast<std::size_t>(n));
  out.routed.resize(static_cast<std::size_t>(n));
  out.digests.resize(static_cast<std::size_t>(n));
  std::vector<std::int64_t> warmup_routed(static_cast<std::size_t>(n), 0);

  rt::WorldOptions options;
  options.transport = transport;
  options.checksum_messages = spec.fault_tolerant;
  options.retry.enabled = spec.fault_tolerant;
  // A hang is a failed run, not a stuck benchmark.
  options.timeout_s = 60.0;

  // Stop decisions and step clocks are taken once per step by the barrier's
  // completion function, so every rank sees the same decision.
  double phase_start = 0.0;
  double last = 0.0;
  bool timing = false;
  bool round_end = false;
  bool stop = false;
  auto on_step = [&]() noexcept {
    const double now = mono_now();
    if (timing) {
      out.step_s.push_back(now - last);
      out.timed_s += now - last;
      ++out.timed_steps;
      round_end = out.timed_steps % spec.round_steps == 0;
      stop = round_end && now - phase_start >= timed_seconds;
      if (stop) {
        out.after = obs::global_registry().snapshot();
        out.trace_end_us = obs::now_us();
        out.peak_rss = peak_rss_mib();
      }
    }
    last = now;
  };
  std::barrier sync(n, on_step);
  // The world-replica operation: dense parameters are replicated on every
  // rank, so all of their digests must be equal. Its time is left out of
  // the step times.
  auto on_round = [&]() noexcept {
    ++out.rounds;
    for (const RankDigest& d : out.digests)
      if (d.dense != out.digests[0].dense) {
        ++out.diverged_rounds;
        break;
      }
    last = mono_now();
  };
  std::barrier round(n, on_round);
  auto begin_timing = [&]() noexcept {
    out.before = obs::global_registry().snapshot();
    out.trace_begin_us = obs::now_us();
    out.setup_end = mono_now();
    phase_start = out.setup_end;
    last = phase_start;
    timing = true;
  };
  std::barrier start(n, begin_timing);

  core::set_threads(spec.lanes);
  rt::World::run(n, options, [&](rt::Communicator& world) {
    const int rank = world.rank();
    const auto layout = parallel::MoDaLayout::make(n, spec.ep);
    parallel::DistMoETransformerLM lm(world, layout, spec.config,
                                      Rng(kModelSeed));
    train::Adam adam(spec.lr);
    parallel::DistTrainerOptions topt;
    topt.clip_norm = spec.clip_norm;
    if (spec.compressed) {
      coll::CompressionPolicy policy;
      policy.grad_wire = coll::Wire::kBF16;
      policy.int8_dispatch = true;
      topt.compression = policy;
    } else {
      topt.compression = coll::CompressionPolicy{};  // f32 wires
    }
    parallel::DistTrainer trainer(world, lm, adam, topt);
    // Every rank draws the same global batch and trains on its slice, so
    // the data does not depend on the world size.
    train::MarkovTokenStream warmup_stream(spec.config.vocab, spec.noise,
                                           kWarmupDataSeed);
    train::MarkovTokenStream stream(spec.config.vocab, spec.noise, seed + 17);
    const std::int64_t seq = spec.config.seq_len;

    auto step = [&](bool timed) {
      const train::Batch global =
          (timed ? stream : warmup_stream).next_batch(spec.global_batch, seq);
      train::Batch local;
      const auto lo = static_cast<std::ptrdiff_t>(rank * per_rank * seq);
      const auto hi = lo + static_cast<std::ptrdiff_t>(per_rank * seq);
      local.tokens.assign(global.tokens.begin() + lo, global.tokens.begin() + hi);
      local.targets.assign(global.targets.begin() + lo,
                           global.targets.begin() + hi);
      const parallel::DistStepStats stats = trainer.train_step(local);
      std::int64_t recv = 0;
      for (std::size_t l = 0; l < lm.num_blocks(); ++l)
        recv += lm.moe_layer(l).last_recv_tokens();
      const auto r = static_cast<std::size_t>(rank);
      if (timed && timed_seconds >= 0.0) {
        out.phases[r].push_back(stats.phases);
        out.recv[r].push_back(recv);
        out.routed[r].push_back(stats.dispatch.routed);
      } else if (!timed) {
        warmup_routed[r] += stats.dispatch.routed;
      }
      if (rank == 0) out.losses.push_back(stats.global_loss);
    };

    // A rank that throws leaves the harness barriers, so the others run
    // on into the program's own error path instead of waiting forever.
    bool started = false;
    try {
      for (int s = 0; s < spec.warmup; ++s) step(false);
      if (timed_seconds < 0.0) {
        for (int s = 0; s < spec.replay_steps; ++s) step(true);
      } else {
        start.arrive_and_wait();
        started = true;
        do {
          step(true);
          sync.arrive_and_wait();
          if (round_end) {
            out.digests[static_cast<std::size_t>(rank)] =
                digest_rank(lm, layout, rank);
            round.arrive_and_wait();
          }
        } while (!stop);
      }
    } catch (...) {
      if (timed_seconds >= 0.0) {
        if (!started) start.arrive_and_drop();
        sync.arrive_and_drop();
        round.arrive_and_drop();
      }
      throw;
    }
  });
  for (const std::int64_t r : warmup_routed) out.warmup_routed += r;
  return out;
}

/// Σ over metrics named `prefix`*`suffix` (an empty suffix matches the
/// prefix alone) of counter value or histogram sum, after minus before.
double registry_delta(const TrainRun& run, const std::string& prefix,
                      const std::string& suffix) {
  auto matches = [&](const std::string& name) {
    if (suffix.empty()) return name == prefix;
    return name.size() >= prefix.size() + suffix.size() &&
           name.starts_with(prefix) && name.ends_with(suffix);
  };
  auto total = [&](const std::vector<obs::MetricSnapshot>& snap) {
    double s = 0.0;
    for (const obs::MetricSnapshot& m : snap) {
      if (!matches(m.name)) continue;
      s += m.kind == obs::MetricKind::kHistogram ? m.sum
                                                  : static_cast<double>(m.count);
    }
    return s;
  };
  return total(run.after) - total(run.before);
}

/// Median over timed steps of the rank-mean of one phase, in ms.
double phase_ms(const TrainRun& run,
                double model::StepPhaseTimes::*field) {
  const std::size_t steps = run.phases[0].size();
  std::vector<double> per_step(steps, 0.0);
  for (const auto& rank : run.phases)
    for (std::size_t s = 0; s < steps; ++s) per_step[s] += rank[s].*field;
  for (double& v : per_step)
    v = 1e3 * v / static_cast<double>(run.phases.size());
  return quantile(per_step, 0.5);
}

/// perf_model's step breakdown for the workload's shape on this host: one
/// node whose peak is the measured GEMM rate of every rank, and a link
/// guessed for the transport (in-process copies or loopback sockets).
perf::StepBreakdown predict(const TrainSpec& spec,
                            double gemm_gflops_per_rank) {
  topo::MachineSpec host;
  host.name = "this-host";
  host.processes_per_node = spec.ranks;
  host.cores_per_node = spec.ranks * spec.lanes;
  host.intra_node = spec.transport == "tcp" ? topo::LinkSpec{2e-5, 1e9}
                                            : topo::LinkSpec{2e-6, 4e9};
  host.intra_super = host.intra_node;
  host.inter_super = host.intra_node;
  host.node_peak_flops_f32 = 1e9 * gemm_gflops_per_rank * spec.ranks;
  host.node_peak_flops_f16 = host.node_peak_flops_f32;
  host.node_memory_bytes = 16.0 * 1024 * 1024 * 1024;
  host.gemm_efficiency = 1.0;
  perf::TrainSetup setup;
  setup.model = spec.config;
  setup.machine = host;
  setup.ep_size = spec.ep;
  setup.tokens_per_rank = spec.global_batch / spec.ranks * spec.config.seq_len;
  setup.compute = DType::kF32;
  setup.a2a_algo = coll::AlltoallAlgo::kPairwise;
  setup.hierarchical_allreduce = false;
  setup.two_level_gating = false;
  setup.vocab_parallel_embedding = false;
  setup.grad_wire = spec.compressed ? coll::Wire::kBF16 : coll::Wire::kF32;
  setup.dispatch_wire =
      spec.compressed ? coll::Wire::kInt8Block : coll::Wire::kF32;
  return perf::model_step(setup);
}

std::string wire_name(const TrainSpec& s) {
  return s.compressed ? "grad bf16, dispatch int8" : "grad f32, dispatch f32";
}

}  // namespace

Result run_train(const Args& args) {
  TrainSpec spec = spec_for(args.workload, args.toy);
  if (args.sabotage == "no_clip") spec.clip_norm = 0.0;
  const model::MoEModelConfig& c = spec.config;
  print_config("workload", args.workload);
  print_config("seed", std::to_string(args.seed));
  print_config("model", "vocab " + std::to_string(c.vocab) + ", d_model " +
                            std::to_string(c.d_model) + ", layers " +
                            std::to_string(c.n_layers) + ", heads " +
                            std::to_string(c.n_heads) + ", seq_len " +
                            std::to_string(c.seq_len) + ", d_ffn " +
                            std::to_string(c.d_ffn) + ", experts " +
                            std::to_string(c.num_experts) + " top-" +
                            std::to_string(c.top_k));
  print_config("ranks x lanes", std::to_string(spec.ranks) + " x " +
                                    std::to_string(spec.lanes) + " (EP " +
                                    std::to_string(spec.ep) + " x DP " +
                                    std::to_string(spec.ranks / spec.ep) + ")");
  print_config("global batch", std::to_string(spec.global_batch) +
                                   " sequences x " +
                                   std::to_string(c.seq_len) + " tokens");
  print_config("transport", spec.transport);
  print_config("crc + retransmit", spec.fault_tolerant ? "on" : "off");
  print_config("wires", wire_name(spec));
  print_config("overlap", parallel::overlap_default_from_env()
                              ? "on (default)"
                              : "off (default)");
  print_config("optimizer", "rank-local Adam, clip " +
                                std::to_string(spec.clip_norm));
  print_config("round", std::to_string(spec.round_steps) +
                            " steps + 1 world-replica operation");

  TrainRun run = run_world(spec, spec.transport, args.seed, args.seconds);
  const double setup_s = run.setup_end - args.t0;

  Result res;
  res.attempted = run.timed_steps + run.rounds;
  res.failed = run.diverged_rounds;
  std::cout << "# operations: " << run.timed_steps << " steps, "
            << run.rounds << " world-replica operations, "
            << run.diverged_rounds
            << " of them found the dense parameters differing between ranks\n";
  const double tokens_per_step =
      static_cast<double>(spec.global_batch * c.seq_len);
  res.metrics["setup_s"] = setup_s;
  res.metrics["peak_rss_mb"] = run.peak_rss;
  res.metrics["tokens_per_s"] =
      tokens_per_step * static_cast<double>(run.timed_steps) / run.timed_s;
  res.metrics["latency_ms_p50"] = 1e3 * quantile(run.step_s, 0.5);
  res.metrics["latency_ms_p90"] = 1e3 * quantile(run.step_s, 0.9);

  // Per-layer figures, per step (phase times per rank).
  const double steps = static_cast<double>(run.timed_steps);
  const double rank_steps = steps * spec.ranks;
  res.metrics["parallel.forward_ms"] =
      phase_ms(run, &model::StepPhaseTimes::forward_s);
  res.metrics["parallel.backward_ms"] =
      phase_ms(run, &model::StepPhaseTimes::backward_s);
  res.metrics["parallel.alltoall_ms"] =
      phase_ms(run, &model::StepPhaseTimes::alltoall_s);
  res.metrics["parallel.grad_sync_ms"] =
      phase_ms(run, &model::StepPhaseTimes::allreduce_s);
  res.metrics["train.optimizer_ms"] =
      phase_ms(run, &model::StepPhaseTimes::optimizer_s);
  res.metrics["runtime.bytes_per_step"] =
      registry_delta(run, "comm.", ".send.bytes") / steps;
  res.metrics["runtime.msgs_per_step"] =
      registry_delta(run, "comm.", ".send.msgs") / steps;
  res.metrics["runtime.recv_wait_ms"] =
      1e3 * registry_delta(run, "comm.", ".recv.wait_s") / rank_steps;
  res.metrics["runtime.retransmits_per_step"] =
      registry_delta(run, "comm.retry.retransmits", "") / steps;
  res.metrics["collectives.encode_ms"] =
      1e3 * registry_delta(run, "comm.compress.encode_s", "") / rank_steps;
  res.metrics["core.pool_regions_per_step"] =
      registry_delta(run, "pool.regions", "") / steps;
  res.metrics["moe.routed_per_step"] =
      static_cast<double>(run.warmup_routed) / spec.warmup;
  res.trace_begin_us = run.trace_begin_us;
  res.trace_end_us = run.trace_end_us;
  res.trace_rank_steps = run.timed_steps * spec.ranks;

  if (args.sabotage == "copy_expert") {
    // What a positional allgather of expert shards does: EP index 1's
    // first expert ends up with EP index 0's first expert's weights.
    for (RankDigest& d : run.digests) {
      if (d.ep_index != 1) continue;
      for (auto& [key, h] : d.experts)
        if (key.first == 0) {
          h = run.digests[0].experts.begin()->second;
          break;
        }
    }
  } else if (args.sabotage == "lose_row") {
    run.recv[0][0] -= 1;
  } else if (args.sabotage == "diverge_replica") {
    run.digests.back().dense ^= 1;
    run.digests.back().shard ^= 1;
  }

  // Checks on the trained state. The world-wide comparison of the dense
  // parameters is the round operation above; these hold within an EP index.
  Checks& checks = res.checks;
  check_replicas(run.digests, checks);
  check_experts_distinct(run.digests, checks);
  check_dispatch_rows(run.recv, run.routed, checks);
  const double floor = markov_entropy_floor(c.vocab, spec.noise);
  const std::size_t tail =
      std::clamp<std::size_t>(run.losses.size() / 10, 1, 20);
  if (args.sabotage == "raise_loss" || args.sabotage == "sink_loss") {
    const double v = args.sabotage == "raise_loss" ? run.losses.front() + 1.0
                                                   : floor - 1.0;
    std::fill(run.losses.end() - static_cast<std::ptrdiff_t>(tail),
              run.losses.end(), v);
  }
  check_loss_trajectory(run.losses, floor, /*margin=*/0.1, tail, checks);

  // Replay the warmup and the first timed steps under the second
  // configuration.
  TrainSpec replay = spec;
  std::string replay_transport = spec.transport;
  std::string replay_name;
  if (spec.replay_under == TrainSpec::Replay::kOneLane) {
    replay.lanes = 1;
    replay_name = "train.first_steps_bitwise_1_lane";
  } else {
    replay_transport = "inproc";
    replay_name = "train.first_steps_bitwise_inproc";
  }
  TrainRun ref = run_world(replay, replay_transport, args.seed, -1.0);
  if (args.sabotage == "perturb_loss")
    ref.losses.back() = std::nextafter(ref.losses.back(), 1e9);
  const std::vector<double> first(
      run.losses.begin(), run.losses.begin() + spec.warmup + spec.replay_steps);
  check_bitwise_losses(replay_name, first, ref.losses, checks);

  // Layer timing of our own: the largest training GEMM at the workload's
  // lanes (traced runs only, which report the per-layer figures).
  if (!args.trace) return res;
  core::set_threads(spec.lanes);
  const std::int64_t rows = spec.global_batch / spec.ranks * c.seq_len;
  const double gflops = gemm_gflops(
      rows, c.d_model, std::max<std::int64_t>(c.d_ffn, c.vocab), args.seed);
  res.metrics["tensor.gemm_gflops.train"] = gflops;

  // The same shape through perf_model, beside the measured medians.
  const perf::StepBreakdown b = predict(spec, gflops);
  auto row = [](const char* phase, double predicted_s, double measured_ms) {
    std::cout << "# model " << phase << ": perf_model " << 1e3 * predicted_s
              << " ms, measured " << measured_ms << " ms\n";
  };
  const auto& m = res.metrics;
  row("forward+backward", b.dense_s + b.expert_s + b.gate_s + b.dispatch_s +
                              b.combine_s,
      m.at("parallel.forward_ms") + m.at("parallel.backward_ms"));
  row("alltoall", b.dispatch_s + b.combine_s, m.at("parallel.alltoall_ms"));
  row("grad_sync", b.allreduce_s, m.at("parallel.grad_sync_ms"));
  row("optimizer", b.optimizer_s, m.at("train.optimizer_ms"));
  row("step", b.total_s, m.at("latency_ms_p50"));
  return res;
}

}  // namespace perfbench

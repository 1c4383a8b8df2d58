// The serve_mixed workload: a closed loop of clients against serve::Engine
// with paged KV and the expert cache. Each client keeps one request in
// flight and submits its next one as soon as the last completes; with more
// clients than batch slots, requests queue. Requests come in rounds of a
// fixed mix (mostly short prompts, some long ones, a few that run past the
// window) with the same lengths in every round; the seed only picks the
// tokens, the sampler seeds and the order within a round, so every seed
// does the same amount of work. Latencies are taken from outside the
// engine, at step boundaries.
#include <algorithm>
#include <barrier>
#include <exception>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "core/thread_pool.hpp"
#include "model/generate.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"

namespace perfbench {
namespace {

using namespace bgl;

constexpr std::uint64_t kModelSeed = 2022;

struct ServeSpec {
  model::MoEModelConfig config;
  serve::EngineOptions engine;
  int replicas = 4;  // engines, one per core, one compute lane each
  int clients = 6;   // per engine
  // One round: this many requests of each class.
  int short_per_round = 4;
  int long_per_round = 2;
  int slide_per_round = 2;
};

ServeSpec spec_for(bool toy) {
  ServeSpec s;
  model::MoEModelConfig& c = s.config;
  c.name = "serve_mixed";
  // The training workloads' width with twice the layers, and experts small
  // enough that one engine's weights and KV pool (about 1.4 MB) stay in its
  // core's L2 (2 MiB on the reference host). M = 1 decode rereads every
  // weight each step: a model that spilled to the shared L3 (d_ffn 128,
  // 8 experts, about 2.8 MB) took 1.9 to 3.5 ms per step on the same inputs
  // as other tenants' load on the L3 changed, while training moved by 5%.
  // A model of half the width and layers gave figures twice as noisy.
  c.vocab = 256;
  c.d_model = 64;
  c.n_layers = 4;
  c.n_heads = 4;
  c.seq_len = 64;
  c.d_ffn = 64;
  c.num_experts = 4;
  c.top_k = 2;
  c.capacity_factor = 2.0;
  s.engine.max_batch = 4;
  s.engine.block_tokens = 16;
  // Three full windows for four slots: long requests hit KV backpressure.
  s.engine.num_blocks = 12;
  s.engine.expert_cache_prefetch = 2;
  s.replicas = host_lanes();
  if (toy) {
    c.d_model = 16;
    c.d_ffn = 32;
    c.vocab = 32;
    c.seq_len = 32;
    c.n_layers = 2;
    s.engine.block_tokens = 8;
  }
  // Half of the (layer, expert) weights fit, so the cache evicts.
  s.engine.expert_cache_capacity = c.n_layers * c.num_experts / 2;
  return s;
}

enum class Kind { kShort, kLong, kSlide };

struct Planned {
  serve::Request request;
  Kind kind;
};

/// Round `r` of the request stream: the fixed mix in a seeded order. The
/// lengths are the same in every round; the seed picks the prompt tokens,
/// the sampler seeds and the order.
std::vector<Planned> make_round(const ServeSpec& spec, std::uint64_t seed,
                                std::int64_t r) {
  const std::int64_t w = spec.config.seq_len;
  const std::int64_t vocab = spec.config.vocab;
  Rng rng = Rng(seed).fork(static_cast<std::uint64_t>(r) + 1);
  std::vector<Planned> round;
  auto add = [&](Kind kind, std::int64_t prompt_len, std::int64_t max_new) {
    Planned p;
    p.kind = kind;
    p.request.prompt.resize(static_cast<std::size_t>(prompt_len));
    for (auto& t : p.request.prompt)
      t = static_cast<std::int32_t>(rng.uniform_index(
          static_cast<std::uint64_t>(vocab)));
    p.request.options.max_new_tokens = max_new;
    // Every third request decodes greedily, the rest sample.
    p.request.options.temperature = round.size() % 3 == 0 ? 0.0 : 0.8;
    p.request.options.top_k = 16;
    p.request.seed = rng.next_u64();
    round.push_back(std::move(p));
  };
  // Short: prompt and output stay well inside the window.
  const std::int64_t short_len[][2] = {
      {w / 16, w / 4}, {w / 16 + 1, 3 * w / 8}, {3 * w / 32, w / 2},
      {w / 8, 5 * w / 16}};
  for (int i = 0; i < spec.short_per_round; ++i)
    add(Kind::kShort, short_len[i % 4][0], short_len[i % 4][1]);
  // Long prompt, nearly a window, so its prefill costs about as much as a
  // slide; the output still fits in the window.
  for (int i = 0; i < spec.long_per_round; ++i) {
    const std::int64_t p = i % 2 == 0 ? 7 * w / 8 : 15 * w / 16;
    add(Kind::kLong, p, i % 2 == 0 ? w / 16 + 2 : w + 1 - p);
  }
  // Runs past the window: its last 2 or 3 tokens each re-prefill it.
  for (int i = 0; i < spec.slide_per_round; ++i) {
    const std::int64_t p = i % 2 == 0 ? 29 * w / 32 : 15 * w / 16;
    add(Kind::kSlide, p, w + 1 - p + (i % 2 == 0 ? 2 : 3));
  }
  for (std::size_t i = round.size(); i > 1; --i)
    std::swap(round[i - 1], round[rng.uniform_index(i)]);
  return round;
}

/// One request's life as the client saw it.
struct Record {
  Planned plan;
  std::int64_t client = 0;
  double submit_wall = 0.0;
  std::vector<std::int32_t> tokens;
  std::int64_t admit_step = -1;
  std::int64_t finish_step = -1;
};

struct LoopResult {
  std::vector<Record> records;
  std::vector<double> step_end;    // wall time at the end of step s
  std::vector<double> step_busy;   // seconds inside Engine::step()
  double begin = 0.0;
  double end = 0.0;
  KvCounts kv;
  serve::SloSummary slo;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

/// Runs the closed loop until `seconds` have passed, finishing the round
/// in progress, then drains. `first_round` numbers the rounds used.
LoopResult closed_loop(const ServeSpec& spec, model::MoETransformerLM& lm,
                       std::uint64_t seed, double seconds,
                       std::int64_t first_round) {
  serve::Engine engine(lm, spec.engine);
  LoopResult out;
  // All-or-nothing reservation hands rolled-back blocks back to the
  // allocator, which still counts them; this counter keeps only blocks of
  // successful reservations. The caller binds a registry of its own.
  obs::Counter& reserved =
      obs::registry().counter("serve.kv.blocks_allocated");
  const std::int64_t reserved_before = reserved.value();
  std::vector<Planned> pending;
  std::int64_t round = first_round;
  std::size_t next = 0;
  bool closing = false;
  std::int64_t id = 0;
  out.begin = mono_now();

  // Request ids are record indices.
  auto submit = [&](std::int64_t client) {
    if (next == pending.size()) {
      if (closing) return;
      pending = make_round(spec, seed, round++);
      next = 0;
    }
    Record rec;
    rec.plan = pending[next++];
    rec.client = client;
    rec.plan.request.id = id++;
    rec.plan.request.arrival_step = engine.current_step();
    rec.submit_wall = mono_now();
    engine.submit(rec.plan.request);
    out.records.push_back(std::move(rec));
  };
  for (int c = 0; c < spec.clients; ++c) submit(c);

  std::size_t seen = 0;
  for (;;) {
    const double t = mono_now();
    const bool more = engine.step();
    const double done = mono_now();
    out.step_busy.push_back(done - t);
    out.step_end.push_back(done);
    closing = closing || done - out.begin >= seconds;
    const auto& results = engine.results();
    for (; seen < results.size(); ++seen) {
      const serve::RequestResult& r = results[seen];
      Record& rec = out.records[static_cast<std::size_t>(r.id)];
      rec.tokens = r.tokens;
      rec.admit_step = r.admit_step;
      rec.finish_step = r.finish_step;
      submit(rec.client);
    }
    if (!more && engine.queued() == 0 && engine.active() == 0) break;
  }
  out.end = mono_now();
  const serve::BlockAllocator& allocator = engine.kv().allocator();
  out.kv.reserved_blocks = reserved.value() - reserved_before;
  out.kv.total_allocs = allocator.total_allocs();
  out.kv.free_blocks = allocator.free_blocks();
  out.kv.num_blocks = allocator.num_blocks();
  out.slo = engine.slo_summary();
  if (const serve::ExpertCache* cache = engine.expert_cache()) {
    out.cache_hits = cache->hits();
    out.cache_misses = cache->misses();
  }
  return out;
}

/// Step kind of engine step s, inferred from the requests active in it:
/// a window slide if any sequence re-prefills its window, else a prefill
/// if any sequence was admitted, else a steady decode.
enum class StepKind { kDecode = 0, kPrefill = 1, kSlide = 2 };

std::vector<StepKind> step_kinds(const LoopResult& loop, std::int64_t window) {
  std::vector<StepKind> kinds(loop.step_end.size(), StepKind::kDecode);
  for (const Record& r : loop.records) {
    if (r.admit_step < 0) continue;
    const auto p = static_cast<std::int64_t>(r.plan.request.prompt.size());
    for (std::int64_t s = r.admit_step; s <= r.finish_step; ++s) {
      StepKind& k = kinds[static_cast<std::size_t>(s)];
      // Token g of the request is produced at step admit + g - 1; before it
      // the sequence caches |p| + g - 2 rows, and a full window slides.
      const std::int64_t g = s - r.admit_step + 1;
      if (g >= 2 && p + g - 2 >= window) {
        k = StepKind::kSlide;
      } else if (g == 1 && k != StepKind::kSlide) {
        k = StepKind::kPrefill;
      }
    }
  }
  return kinds;
}

/// Median microseconds of one forward_decode at position `pos`.
double forward_decode_us(model::MoETransformerLM& lm, std::int64_t pos) {
  lm.set_training(false);
  model::DecodeScratch scratch = lm.make_decode_scratch();
  model::DecodeState state = lm.make_decode_state();
  for (std::int64_t i = 0; i < pos; ++i)
    (void)lm.forward_decode(static_cast<std::int32_t>(i % lm.config().vocab),
                            scratch, state);
  std::vector<double> us;
  for (int s = 0; s < 51; ++s) {
    model::DecodeState copy = state;
    const double t = mono_now();
    (void)lm.forward_decode(1, scratch, copy);
    us.push_back(1e6 * (mono_now() - t));
  }
  lm.set_training(true);
  return quantile(us, 0.5);
}

/// Median microseconds of materializing one layer of a half-window sequence.
double kv_materialize_us(const ServeSpec& spec) {
  serve::PagedKvCache::Config c;
  c.n_layers = spec.config.n_layers;
  c.d_model = spec.config.d_model;
  c.seq_len = spec.config.seq_len;
  c.block_tokens = spec.engine.block_tokens;
  c.num_blocks = c.seq_len / c.block_tokens + 1;
  serve::PagedKvCache kv(c);
  serve::PagedKvCache::Sequence seq;
  const std::int64_t rows = c.seq_len / 2;
  if (!kv.try_reserve(seq, rows)) return 0.0;
  std::vector<float> row(static_cast<std::size_t>(c.d_model), 0.5f);
  for (std::int64_t pos = 0; pos < rows; ++pos)
    for (std::int64_t l = 0; l < c.n_layers; ++l)
      kv.write_row(seq, l, pos, row, row);
  seq.len = rows;
  Tensor k = Tensor::zeros({c.seq_len, c.d_model});
  Tensor v = Tensor::zeros({c.seq_len, c.d_model});
  std::vector<double> us;
  for (int s = 0; s < 51; ++s) {
    const double t = mono_now();
    for (int i = 0; i < 20; ++i) kv.materialize(seq, 0, k, v);
    us.push_back(1e6 * (mono_now() - t) / 20.0);
  }
  kv.release(seq);
  return quantile(us, 0.5);
}

}  // namespace

Result run_serve(const Args& args) {
  const ServeSpec spec = spec_for(args.toy);
  const model::MoEModelConfig& c = spec.config;
  const std::int64_t window = c.seq_len;
  const int replicas = spec.replicas;
  print_config("workload", args.workload);
  print_config("seed", std::to_string(args.seed));
  print_config("model", "vocab " + std::to_string(c.vocab) + ", d_model " +
                            std::to_string(c.d_model) + ", layers " +
                            std::to_string(c.n_layers) + ", heads " +
                            std::to_string(c.n_heads) + ", window " +
                            std::to_string(window) + ", d_ffn " +
                            std::to_string(c.d_ffn) + ", experts " +
                            std::to_string(c.num_experts) + " top-" +
                            std::to_string(c.top_k));
  print_config("replicas x lanes", std::to_string(replicas) + " x 1");
  print_config("engine", "max_batch " + std::to_string(spec.engine.max_batch) +
                             ", KV blocks " +
                             std::to_string(spec.engine.num_blocks) + " x " +
                             std::to_string(spec.engine.block_tokens) +
                             " tokens, expert cache " +
                             std::to_string(spec.engine.expert_cache_capacity) +
                             " (prefetch " +
                             std::to_string(spec.engine.expert_cache_prefetch) +
                             ")");
  print_config("traffic", "closed loop per replica, " +
                              std::to_string(spec.clients) +
                              " clients; round = " +
                              std::to_string(spec.short_per_round) +
                              " short + " + std::to_string(spec.long_per_round) +
                              " long-prompt + " +
                              std::to_string(spec.slide_per_round) +
                              " past-window requests");

  // One engine per core, each with its own model copy (same weights) and
  // its own clients: a lone single-threaded engine's speed swings from run
  // to run on a shared host, and the replicas average part of that out.
  core::set_threads(1);
  std::vector<std::unique_ptr<model::MoETransformerLM>> models(
      static_cast<std::size_t>(replicas));
  std::vector<LoopResult> loops(static_cast<std::size_t>(replicas));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(replicas));
  auto stream_seed = [&](int r) {
    return Rng(args.seed).fork(static_cast<std::uint64_t>(r) + 1).next_u64();
  };
  double begin = 0.0;
  std::barrier start(replicas, [&]() noexcept { begin = mono_now(); });
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < replicas; ++r) {
      threads.emplace_back([&, r] {
        const auto i = static_cast<std::size_t>(r);
        bool arrived = false;
        obs::Registry registry;  // this engine's counters alone
        obs::ScopedRegistry bind(registry);
        try {
          // The weights are the program's, not an input: fixed across seeds.
          Rng rng(kModelSeed);
          models[i] = std::make_unique<model::MoETransformerLM>(c, rng);
          // Warm-up: one round through its own engine, untimed.
          (void)closed_loop(spec, *models[i], stream_seed(r), 0.0, 1'000'000);
          start.arrive_and_wait();
          arrived = true;
          loops[i] =
              closed_loop(spec, *models[i], stream_seed(r), args.seconds, 0);
        } catch (...) {
          errors[i] = std::current_exception();
          if (!arrived) start.arrive_and_drop();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  const double setup_s = begin - args.t0;
  const double peak_rss = peak_rss_mib();

  // Client-visible latencies, at step boundaries.
  // Throughput is summed over the engines, each over its own wall time, so
  // one engine's drain does not idle the others' figures.
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  double tokens_per_s = 0.0;
  std::int64_t requests = 0;
  for (const LoopResult& loop : loops) {
    std::int64_t generated = 0;
    requests += static_cast<std::int64_t>(loop.records.size());
    for (const Record& r : loop.records) {
      if (r.admit_step < 0) continue;
      ttft_ms.push_back(
          1e3 * (loop.step_end[static_cast<std::size_t>(r.admit_step)] -
                 r.submit_wall));
      for (std::int64_t s = r.admit_step + 1; s <= r.finish_step; ++s)
        itl_ms.push_back(1e3 * (loop.step_end[static_cast<std::size_t>(s)] -
                                loop.step_end[static_cast<std::size_t>(s - 1)]));
      generated += r.finish_step - r.admit_step + 1;
    }
    tokens_per_s += static_cast<double>(generated) / (loop.end - begin);
  }

  Result res;
  res.attempted = requests;
  res.metrics["setup_s"] = setup_s;
  res.metrics["peak_rss_mb"] = peak_rss;
  res.metrics["tokens_per_s"] = tokens_per_s;
  res.metrics["latency_ms_p50"] = quantile(itl_ms, 0.5);
  res.metrics["latency_ms_p90"] = quantile(itl_ms, 0.9);

  // Checks, per replica.
  for (std::size_t i = 0; i < loops.size(); ++i) {
    LoopResult& loop = loops[i];
    std::vector<ServedRequest> served;
    for (const Record& r : loop.records)
      served.push_back({r.plan.request.prompt,
                        r.plan.request.options.max_new_tokens, r.tokens});
    if (i == 0 && args.sabotage == "flip_prompt") {
      served[0].tokens[0] = (served[0].tokens[0] + 1) % c.vocab;
    } else if (i == 0 && args.sabotage == "drop_token") {
      served[0].tokens.pop_back();
    } else if (i == 0 && args.sabotage == "token_out_of_vocab") {
      served[0].tokens.back() = static_cast<std::int32_t>(c.vocab);
    } else if (i == 0 && args.sabotage == "miscount_kv") {
      loop.kv.reserved_blocks += 1;
    } else if (i == 0 && args.sabotage == "undercount_allocs") {
      loop.kv.total_allocs = loop.kv.reserved_blocks - 1;
    } else if (i == 0 && args.sabotage == "leak_kv") {
      loop.kv.free_blocks -= 1;
    }
    check_completions(served, c.vocab, res.checks);
    check_kv_blocks(served, window, spec.engine.block_tokens, loop.kv,
                    res.checks);
  }

  // Oracle sample: one request of each class, picked by the seed, replayed
  // alone through model::generate() on its replica's model.
  Rng pick = Rng(args.seed).fork(99);
  for (const Kind kind : {Kind::kShort, Kind::kLong, Kind::kSlide}) {
    std::vector<std::pair<std::size_t, const Record*>> of_kind;
    for (std::size_t i = 0; i < loops.size(); ++i)
      for (const Record& r : loops[i].records)
        if (r.plan.kind == kind && r.admit_step >= 0)
          of_kind.emplace_back(i, &r);
    if (of_kind.empty()) {
      res.checks.expect("serve.oracle_match", false, "no request of a class");
      continue;
    }
    const auto [i, rec] = of_kind[pick.uniform_index(of_kind.size())];
    Rng sampler(rec->plan.request.seed);
    const std::vector<std::int32_t> oracle =
        model::generate(*models[i], rec->plan.request.prompt,
                        rec->plan.request.options, sampler);
    std::vector<std::int32_t> engine_tokens = rec->tokens;
    if (args.sabotage == "flip_token" && !engine_tokens.empty())
      engine_tokens.back() = (engine_tokens.back() + 1) % c.vocab;
    check_oracle("serve.oracle_match", engine_tokens, oracle, res.checks);
  }

  if (!args.trace) return res;

  // Per-layer figures, pooled over the replicas.
  std::vector<double> step_ms[3];
  double occupancy = 0.0;
  double queue_wait = 0.0;
  std::int64_t hits = 0;
  std::int64_t lookups = 0;
  std::int64_t reserved = 0;
  std::int64_t allocs = 0;
  for (const LoopResult& loop : loops) {
    const std::vector<StepKind> kinds = step_kinds(loop, window);
    for (std::size_t s = 0; s < kinds.size(); ++s)
      step_ms[static_cast<int>(kinds[s])].push_back(1e3 * loop.step_busy[s]);
    occupancy += loop.slo.mean_batch_occupancy / replicas;
    queue_wait += loop.slo.mean_queue_steps / replicas;
    hits += loop.cache_hits;
    lookups += loop.cache_hits + loop.cache_misses;
    reserved += loop.kv.reserved_blocks;
    allocs += loop.kv.total_allocs;
  }
  res.metrics["serve.step_ms.decode"] =
      quantile(step_ms[static_cast<int>(StepKind::kDecode)], 0.5);
  res.metrics["serve.step_ms.prefill"] =
      quantile(step_ms[static_cast<int>(StepKind::kPrefill)], 0.5);
  res.metrics["serve.step_ms.slide"] =
      quantile(step_ms[static_cast<int>(StepKind::kSlide)], 0.5);
  res.metrics["serve.batch_occupancy"] = occupancy;
  res.metrics["serve.queue_wait_steps"] = queue_wait;
  res.metrics["serve.expert_cache_lookups"] = static_cast<double>(lookups);
  res.metrics["serve.expert_cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  res.metrics["serve.kv_reserved_per_alloc"] =
      static_cast<double>(reserved) /
      static_cast<double>(std::max<std::int64_t>(allocs, 1));
  res.metrics["serve.ttft_ms_p50"] = quantile(ttft_ms, 0.5);
  res.metrics["serve.ttft_ms_p90"] = quantile(ttft_ms, 0.9);
  res.metrics["serve.itl_ms_p99"] = quantile(itl_ms, 0.99);
  res.metrics["model.forward_decode_us"] =
      forward_decode_us(*models[0], window / 2);
  res.metrics["serve.kv_materialize_us"] = kv_materialize_us(spec);
  res.metrics["tensor.gemm_gflops.decode"] = gemm_gflops(
      1, c.d_model, std::max<std::int64_t>(c.d_ffn, c.vocab), args.seed);
  return res;
}

}  // namespace perfbench

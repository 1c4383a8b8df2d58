#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

void check_replicas(const std::vector<RankDigest>& ranks, Checks& checks) {
  bool dense_ok = true;
  bool shard_ok = true;
  std::ostringstream why;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    for (std::size_t s = r + 1; s < ranks.size(); ++s) {
      if (ranks[r].ep_index != ranks[s].ep_index) continue;
      if (ranks[r].dense != ranks[s].dense) {
        dense_ok = false;
        why << "dense params of rank " << s << " differ from its replica "
            << r << "; ";
      }
      if (ranks[r].shard != ranks[s].shard) {
        shard_ok = false;
        why << "expert shard of rank " << s << " differs from its replica "
            << r << "; ";
      }
    }
  }
  checks.expect("train.dp_replicas_dense_equal", dense_ok, why.str());
  checks.expect("train.dp_replicas_shard_equal", shard_ok, why.str());
}

void check_experts_distinct(const std::vector<RankDigest>& ranks,
                            Checks& checks) {
  // One hash per (layer, global id): replicas are the same expert.
  std::map<std::pair<int, int>, std::uint64_t> experts;
  for (const RankDigest& r : ranks)
    for (const auto& [key, h] : r.experts) experts.emplace(key, h);
  bool ok = !experts.empty();
  std::ostringstream why;
  std::map<int, std::map<std::uint64_t, int>> seen;  // layer -> hash -> id
  for (const auto& [key, h] : experts) {
    const auto [it, fresh] = seen[key.first].emplace(h, key.second);
    if (!fresh) {
      ok = false;
      why << "layer " << key.first << " experts " << it->second << " and "
          << key.second << " are bitwise equal; ";
    }
  }
  checks.expect("train.experts_distinct", ok, why.str());
}

void check_dispatch_rows(const std::vector<std::vector<std::int64_t>>& recv,
                         const std::vector<std::vector<std::int64_t>>& routed,
                         Checks& checks) {
  bool ok = !recv.empty() && recv.size() == routed.size();
  std::ostringstream why;
  const std::size_t steps = ok ? recv[0].size() : 0;
  for (std::size_t r = 0; ok && r < recv.size(); ++r)
    ok = recv[r].size() == steps && routed[r].size() == steps;
  for (std::size_t s = 0; ok && s < steps; ++s) {
    std::int64_t rows = 0;
    std::int64_t assigned = 0;
    for (std::size_t r = 0; r < recv.size(); ++r) {
      rows += recv[r][s];
      assigned += routed[r][s];
    }
    if (rows != assigned || assigned <= 0) {
      ok = false;
      why << "step " << s << ": experts received " << rows
          << " rows, plans routed " << assigned;
    }
  }
  checks.expect("train.dispatch_rows_conserved", ok, why.str());
}

void check_loss_trajectory(const std::vector<double>& losses, double floor,
                           double margin, std::size_t tail, Checks& checks) {
  if (losses.size() < tail + 1 || tail == 0) {
    checks.expect("train.loss_falls", false,
                  "only " + std::to_string(losses.size()) + " steps");
    return;
  }
  double sum = 0.0;
  for (std::size_t i = losses.size() - tail; i < losses.size(); ++i)
    sum += losses[i];
  const double mean = sum / static_cast<double>(tail);
  std::ostringstream why;
  why << "first " << losses.front() << ", mean of last " << tail << " "
      << mean << ", floor " << floor << " - margin " << margin;
  checks.expect("train.loss_falls", std::isfinite(mean) && mean < losses.front(),
                why.str());
  checks.expect("train.loss_above_floor", mean > floor - margin, why.str());
}

void check_bitwise_losses(const std::string& name,
                          const std::vector<double>& a,
                          const std::vector<double>& b, Checks& checks) {
  bool ok = !a.empty() && a.size() == b.size();
  std::ostringstream why;
  for (std::size_t i = 0; ok && i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      ok = false;
      why.precision(17);
      why << "step " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  if (a.size() != b.size())
    why << a.size() << " vs " << b.size() << " steps";
  checks.expect(name, ok, why.str());
}

double markov_entropy_floor(std::int64_t vocab, double noise) {
  // The successor is kept with probability 1 - noise and otherwise drawn
  // uniformly, which may land on the successor again.
  const double v = static_cast<double>(vocab);
  const double other = noise / v;
  const double succ = 1.0 - noise + other;
  double h = -succ * std::log(succ);
  if (other > 0.0) h -= (v - 1.0) * other * std::log(other);
  return h;
}

void check_completions(const std::vector<ServedRequest>& served,
                       std::int64_t vocab, Checks& checks) {
  bool length_ok = !served.empty();
  bool prompt_ok = true;
  bool vocab_ok = true;
  std::ostringstream why;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const ServedRequest& s = served[i];
    const std::size_t want = s.prompt.size() + static_cast<std::size_t>(s.max_new);
    if (s.tokens.size() != want) {
      length_ok = false;
      why << "request " << i << " has " << s.tokens.size() << " tokens, want "
          << want << "; ";
      continue;
    }
    if (!std::equal(s.prompt.begin(), s.prompt.end(), s.tokens.begin())) {
      prompt_ok = false;
      why << "request " << i << " prompt altered; ";
    }
    for (const std::int32_t t : s.tokens) {
      if (t < 0 || t >= vocab) {
        vocab_ok = false;
        why << "request " << i << " token " << t << " outside vocab; ";
        break;
      }
    }
  }
  checks.expect("serve.all_complete", length_ok, why.str());
  checks.expect("serve.prompts_intact", prompt_ok, why.str());
  checks.expect("serve.tokens_in_vocab", vocab_ok, why.str());
}

void check_oracle(const std::string& name,
                  const std::vector<std::int32_t>& engine,
                  const std::vector<std::int32_t>& oracle, Checks& checks) {
  std::ostringstream why;
  const bool ok = engine == oracle;
  if (!ok) {
    std::size_t i = 0;
    while (i < engine.size() && i < oracle.size() && engine[i] == oracle[i])
      ++i;
    why << "first difference at token " << i << " of " << engine.size()
        << " (oracle " << oracle.size() << ")";
  }
  checks.expect(name, ok, why.str());
}

void check_kv_blocks(const std::vector<ServedRequest>& served,
                     std::int64_t window, std::int64_t block_tokens,
                     const KvCounts& kv, Checks& checks) {
  std::int64_t expected = 0;
  for (const ServedRequest& s : served) {
    const std::int64_t rows = std::min<std::int64_t>(
        static_cast<std::int64_t>(s.prompt.size()) + s.max_new - 1, window);
    expected += (rows + block_tokens - 1) / block_tokens;
  }
  checks.expect("serve.kv_allocs_match",
                kv.reserved_blocks == expected,
                "reservations kept " + std::to_string(kv.reserved_blocks) +
                    " blocks, requests need " + std::to_string(expected));
  checks.expect("serve.kv_allocator_counts",
                kv.total_allocs >= kv.reserved_blocks,
                "allocator counts " + std::to_string(kv.total_allocs) +
                    " allocations for " + std::to_string(kv.reserved_blocks) +
                    " kept blocks");
  checks.expect("serve.kv_all_freed", kv.free_blocks == kv.num_blocks,
                std::to_string(kv.free_blocks) + " of " +
                    std::to_string(kv.num_blocks) + " blocks free at the end");
}

}  // namespace perfbench

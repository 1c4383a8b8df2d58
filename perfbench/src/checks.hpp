// Property checks on a run's outputs. Each one states something the method
// must satisfy on every run, whatever the timing or thread interleaving —
// never a comparison with a stored copy of earlier outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Bitwise digest of one training rank's parameters after the run.
struct RankDigest {
  int dp_index = 0;
  int ep_index = 0;
  std::uint64_t dense = 0;  // every replicated (non-expert) parameter
  std::uint64_t shard = 0;  // this rank's expert shard, all layers
  /// (layer, global expert id) -> hash of that expert's weights.
  std::map<std::pair<int, int>, std::uint64_t> experts;
};

/// Ranks of one EP index (the DP replicas of one expert shard) hold bitwise
/// the same dense parameters and the same expert shard. The dense parameters
/// are replicated on every rank; their world-wide comparison is the training
/// round's own operation, counted in `failed` (see train.cpp).
void check_replicas(const std::vector<RankDigest>& ranks, Checks& checks);

/// No two global experts of one layer hold bitwise-equal weights.
void check_experts_distinct(const std::vector<RankDigest>& ranks,
                            Checks& checks);

/// For every step, rows received by experts (summed over ranks and layers)
/// equal the routed assignments of the dispatch plans. Indexed
/// [rank][step].
void check_dispatch_rows(const std::vector<std::vector<std::int64_t>>& recv,
                         const std::vector<std::vector<std::int64_t>>& routed,
                         Checks& checks);

/// The mean of the last `tail` losses is below the first loss and above
/// floor - margin.
void check_loss_trajectory(const std::vector<double>& losses, double floor,
                           double margin, std::size_t tail, Checks& checks);

/// Two loss sequences are bitwise equal (compared as raw doubles).
void check_bitwise_losses(const std::string& name,
                          const std::vector<double>& a,
                          const std::vector<double>& b, Checks& checks);

/// Entropy floor (nats) of a Markov stream whose successor is replaced by a
/// uniform draw over `vocab` tokens with probability `noise`.
double markov_entropy_floor(std::int64_t vocab, double noise);

/// One served request as the client saw it.
struct ServedRequest {
  std::vector<std::int32_t> prompt;
  std::int64_t max_new = 0;
  std::vector<std::int32_t> tokens;  // prompt + completion, empty if lost
};

/// Every request completed with |prompt| + max_new tokens, its prompt
/// intact and every token in [0, vocab).
void check_completions(const std::vector<ServedRequest>& served,
                       std::int64_t vocab, Checks& checks);

/// The engine's tokens for one request equal model::generate() run alone.
void check_oracle(const std::string& name,
                  const std::vector<std::int32_t>& engine,
                  const std::vector<std::int32_t>& oracle, Checks& checks);

/// KV accounting of one engine after its run.
struct KvCounts {
  std::int64_t reserved_blocks = 0;  // kept by successful reservations
  std::int64_t total_allocs = 0;     // BlockAllocator::total_allocs
  std::int64_t free_blocks = 0;      // BlockAllocator::free_blocks
  std::int64_t num_blocks = 0;       // BlockAllocator::num_blocks
};

/// Successful KV reservations kept exactly Σ ⌈min(|p|+n−1, window)/block⌉
/// blocks over the requests, the allocator handed out at least those
/// blocks, and its free list holds the whole pool again at the end.
void check_kv_blocks(const std::vector<ServedRequest>& served,
                     std::int64_t window, std::int64_t block_tokens,
                     const KvCounts& kv, Checks& checks);

}  // namespace perfbench

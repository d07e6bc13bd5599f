#include "collectives/schedule.hpp"

#include <algorithm>
#include <string>

#include "util/assert.hpp"

namespace commsched {

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kRecursiveDoubling: return "RD";
    case Pattern::kRecursiveHalvingVD: return "RHVD";
    case Pattern::kBinomial: return "Binomial";
    case Pattern::kRing: return "Ring";
    case Pattern::kPairwiseAlltoall: return "Alltoall";
  }
  return "?";
}

namespace {

using StepVisitor = std::function<bool(const CommStep&)>;

int floor_log2(int x) {
  COMMSCHED_ASSERT(x >= 1);
  int l = 0;
  while ((1 << (l + 1)) <= x) ++l;
  return l;
}

// MPICH-style fold of p ranks onto a 2^floor(lg p) core.
//
// r = p - 2^floor(lg p) extra ranks exist. Ranks 0..2r-1 pair up
// (even, even+1); the even rank of each pair then sits out of the core
// phase. Core ranks are the odd ranks below 2r plus every rank >= 2r.
struct Fold {
  std::vector<std::int32_t> core;  // core_index -> original rank
  CommStep pre;                    // empty pairs when p is a power of two
};

Fold fold_to_pow2(int p, double msize) {
  const int lg = floor_log2(p);
  const int r = p - (1 << lg);
  Fold f;
  f.pre.msize = msize;
  for (int i = 0; i < r; ++i)
    f.pre.pairs.emplace_back(2 * i, 2 * i + 1);
  for (int i = 0; i < 2 * r; i += 2) f.core.push_back(i + 1);
  for (int i = 2 * r; i < p; ++i) f.core.push_back(i);
  // Keep core ranks in ascending original-rank order (they already are).
  COMMSCHED_ASSERT(static_cast<int>(f.core.size()) == (1 << lg));
  return f;
}

// Power-of-two RD/RHVD core: step k exchanges i <-> i ^ dist. RD keeps the
// message size and doubles the distance; RHVD halves the distance (q/2,
// q/4, ..., 1) while the per-pair message doubles (m, 2m, ..., m*q/2) — the
// heaviest exchanges are therefore between rank-adjacent processes, the
// structural reason balanced power-of-two allocations help RHVD most (§6.1).
bool emit_rd_core(const std::vector<std::int32_t>& core, double msize,
                  bool vector_doubling, CommStep& step,
                  const StepVisitor& visit) {
  const int q = static_cast<int>(core.size());
  if (q < 2) return true;
  const int lg = floor_log2(q);
  for (int k = 0; k < lg; ++k) {
    step.pairs.clear();
    step.repeat = 1;
    step.msize =
        vector_doubling ? msize * static_cast<double>(1 << k) : msize;
    const int dist = vector_doubling ? (q >> (k + 1)) : (1 << k);
    for (int i = 0; i < q; ++i) {
      const int j = i ^ dist;
      if (i < j) step.pairs.emplace_back(core[static_cast<std::size_t>(i)],
                                         core[static_cast<std::size_t>(j)]);
    }
    if (!visit(step)) return false;
  }
  return true;
}

bool emit_rd_like(int p, double msize, bool vector_doubling,
                  const StepVisitor& visit) {
  if (p < 2) return true;
  Fold f = fold_to_pow2(p, msize);
  const bool folded = !f.pre.pairs.empty();
  if (folded && !visit(f.pre)) return false;
  CommStep step;
  if (!emit_rd_core(f.core, msize, vector_doubling, step, visit))
    return false;
  if (folded) {
    // Mirror step: core partners hand the (possibly grown) result back.
    CommStep post = std::move(f.pre);
    post.msize = vector_doubling
                     ? msize * static_cast<double>(f.core.size())
                     : msize;
    if (!visit(post)) return false;
  }
  return true;
}

bool emit_binomial(int p, double msize, const StepVisitor& visit) {
  if (p < 2) return true;
  // Binomial broadcast tree rooted at 0: at step k every rank i < 2^k with
  // i + 2^k < p sends to i + 2^k.
  CommStep step;
  step.msize = msize;
  for (int k = 0; (1 << k) < p; ++k) {
    step.pairs.clear();
    const int dist = 1 << k;
    for (int i = 0; i < dist && i + dist < p; ++i)
      step.pairs.emplace_back(i, i + dist);
    if (!visit(step)) return false;
  }
  return true;
}

bool emit_pairwise_alltoall(int p, double msize, const StepVisitor& visit) {
  if (p < 2) return true;
  const bool pow2 = (p & (p - 1)) == 0;
  CommStep step;
  step.msize = msize;
  for (int k = 1; k < p; ++k) {
    step.pairs.clear();
    if (pow2) {
      // XOR exchange: a perfect matching every step.
      for (int i = 0; i < p; ++i) {
        const int j = i ^ k;
        if (i < j) step.pairs.emplace_back(i, j);
      }
    } else {
      // Shift exchange: the i < j filter keeps (i, i + k) for i < p - k and
      // drops every wrapped partner (i + k) mod p < i, so each unordered
      // pair (i, j) is listed once over the whole schedule, at k = j - i.
      for (int i = 0; i < p; ++i) {
        const int j = (i + k) % p;
        if (i < j) step.pairs.emplace_back(i, j);
      }
    }
    if (!visit(step)) return false;
  }
  return true;
}

bool emit_ring(int p, double msize, const StepVisitor& visit) {
  if (p < 2) return true;
  CommStep step;
  step.msize = msize;
  step.repeat = p - 1;
  for (int i = 0; i < p; ++i) {
    const int j = (i + 1) % p;
    // For p == 2 the wrap-around would duplicate the (0,1) pair.
    if (p == 2 && i == 1) break;
    step.pairs.emplace_back(std::min(i, j), std::max(i, j));
  }
  return visit(step);
}

}  // namespace

bool for_each_schedule_step(Pattern pattern, int nprocs, double base_msize,
                            const std::function<bool(const CommStep&)>& visit) {
  COMMSCHED_ASSERT_MSG(nprocs >= 1, "nprocs must be positive");
  COMMSCHED_ASSERT_MSG(base_msize >= 0.0, "message size must be non-negative");
  switch (pattern) {
    case Pattern::kRecursiveDoubling:
      return emit_rd_like(nprocs, base_msize, /*vector_doubling=*/false,
                          visit);
    case Pattern::kRecursiveHalvingVD:
      return emit_rd_like(nprocs, base_msize, /*vector_doubling=*/true, visit);
    case Pattern::kBinomial:
      return emit_binomial(nprocs, base_msize, visit);
    case Pattern::kRing:
      return emit_ring(nprocs, base_msize, visit);
    case Pattern::kPairwiseAlltoall:
      return emit_pairwise_alltoall(nprocs, base_msize, visit);
  }
  COMMSCHED_ASSERT_MSG(false, "unknown pattern");
  return true;
}

CommSchedule make_schedule(Pattern pattern, int nprocs, double base_msize) {
  COMMSCHED_ASSERT_MSG(
      pattern != Pattern::kPairwiseAlltoall ||
          nprocs <= kMaxMaterializedAlltoallRanks,
      "materialized pairwise-alltoall schedules are O(p^2); capped at " +
          std::to_string(kMaxMaterializedAlltoallRanks) +
          " ranks (stream via for_each_schedule_step instead)");
  CommSchedule out;
  for_each_schedule_step(pattern, nprocs, base_msize,
                         [&out](const CommStep& step) {
                           out.push_back(step);
                           return true;
                         });
  return out;
}

double total_bytes(const CommSchedule& schedule) {
  double bytes = 0.0;
  for (const auto& step : schedule)
    bytes += static_cast<double>(step.pairs.size()) * step.msize *
             static_cast<double>(step.repeat);
  return bytes;
}

std::int64_t total_pair_messages(const CommSchedule& schedule) {
  std::int64_t n = 0;
  for (const auto& step : schedule)
    n += static_cast<std::int64_t>(step.pairs.size()) * step.repeat;
  return n;
}

}  // namespace commsched

// Step-wise models of the MPI collective algorithms the paper optimizes for
// (§3.3): recursive doubling (RD), recursive halving with vector doubling
// (RHVD), binomial tree, and — from the paper's future-work list — ring.
//
// A schedule is the sequence of communication steps the algorithm performs;
// each step lists the rank pairs that exchange simultaneously and the
// per-pair message size at that step.  The cost model (Eq. 6) consumes
// schedules directly: "our strategies consider all stages of algorithms
// (RD, RHVD, Binomial) and allocate based on the costliest communication
// step/stage".
//
// Schedules are generated step-by-step through for_each_schedule_step(); the
// materialized CommSchedule form produced by make_schedule() is a convenience
// built on top of it. Consumers that only need one pass over the steps (the
// auditor's sampled re-derivation, the test-side profile oracle) stream
// instead of materializing, which keeps O(p²)-pair patterns affordable at
// large p. The leaf-pair profile builder in comm_cache.cpp reads no rank
// pairs at all: it lowers each step from the allocation's runs, so it
// mirrors the partner maps below and must change with them.
//
// Non-power-of-two process counts use the MPICH construction (Thakur et al.):
// fold the r = p - 2^floor(lg p) excess ranks into a power-of-two core with a
// pre-exchange step, run the power-of-two algorithm on the core, and mirror
// the fold in a post step.  The binomial tree and ring handle any p natively.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace commsched {

/// The communication patterns studied in the paper (+ ring, §7 future work).
enum class Pattern : std::uint8_t {
  kRecursiveDoubling,   ///< e.g. MPI_Allreduce (Figure 3)
  kRecursiveHalvingVD,  ///< e.g. MPI_Allgather (vector doubles per step)
  kBinomial,            ///< e.g. MPI_Bcast / MPI_Reduce
  kRing,                ///< future-work pattern (neighbor exchange, p-1 rounds)
  /// MPI_Alltoall's pairwise-exchange algorithm (the FFTW/CPMD-style
  /// workload the paper's §1/§3.3 cite). p-1 steps; at step k rank i
  /// exchanges with i XOR k (power-of-two p, perfect matching per step);
  /// otherwise step k lists the pairs (i, i+k) for i < p-k only, so each
  /// unordered pair (i, j) appears once, at step k = j-i. Materialized
  /// schedules are O(p^2) pairs, so make_schedule() caps this pattern at
  /// kMaxMaterializedAlltoallRanks; for_each_schedule_step() streams it at
  /// any p.
  kPairwiseAlltoall,
};

const char* pattern_name(Pattern p);

/// Largest rank count make_schedule() will materialize for
/// kPairwiseAlltoall (O(p^2) pairs ≈ 8M pairs / 134 MB at this cap). The
/// streaming path has no cap.
inline constexpr int kMaxMaterializedAlltoallRanks = 4096;

/// One synchronized step of a collective: the rank pairs that communicate in
/// parallel, the per-pair message size (bytes), and how many times the step
/// repeats back-to-back (used to model the ring's p-1 identical rounds
/// without materializing them all).
struct CommStep {
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  double msize = 0.0;
  int repeat = 1;
};

using CommSchedule = std::vector<CommStep>;

/// Visit the steps of `pattern` over ranks 0..nprocs-1 in schedule order
/// without materializing the whole schedule. The CommStep passed to `visit`
/// is scratch owned by the generator and only valid for the duration of the
/// callback. Return false from `visit` to stop early; the function returns
/// false iff the visitor stopped the walk. nprocs >= 1; nprocs == 1 visits
/// nothing.
bool for_each_schedule_step(Pattern pattern, int nprocs, double base_msize,
                            const std::function<bool(const CommStep&)>& visit);

/// Build the schedule of `pattern` over ranks 0..nprocs-1 with base message
/// size `base_msize` bytes. nprocs >= 1; nprocs == 1 yields an empty
/// schedule.
CommSchedule make_schedule(Pattern pattern, int nprocs, double base_msize);

/// Total bytes moved by the schedule (sum over steps of pairs * msize *
/// repeat). The paper's observation that RHVD is "more communication-heavy"
/// than RD is visible here: RHVD moves O(p * msize) versus RD's
/// O(log p * msize) per rank.
double total_bytes(const CommSchedule& schedule);

/// Total number of pair-communications (pairs summed over steps, with
/// repeats).
std::int64_t total_pair_messages(const CommSchedule& schedule);

}  // namespace commsched

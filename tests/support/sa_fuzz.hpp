// Fuzzed inputs shared by the simulated-annealing tests: partly busy
// cluster states, request sizes that fit one leaf or span several, and
// Theta-shaped logs of 2- to 64-node jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/state.hpp"
#include "topology/tree.hpp"
#include "workload/job.hpp"

namespace commsched {

/// Background jobs fill each leaf to a random level: some leaves stay
/// empty, some fill up, the rest are peppered. Candidate-leaf counts then
/// vary from request to request.
ClusterState sa_fuzz_state(const Tree& tree, std::uint64_t seed);

/// Request sizes for `state`: up to three that fit in its emptiest leaf and
/// up to two that must span several, none above `multi_cap`. Ascending,
/// without repeats.
std::vector<int> sa_request_sizes(const ClusterState& state, int multi_cap);

/// Theta-shaped logs scaled onto `tree`, with requests of 2 to 64 nodes
/// (many fit one leaf, the rest span several) and every pattern in the mix.
JobLog sa_fuzz_log(const Tree& tree, int n_jobs, std::uint64_t seed);

}  // namespace commsched

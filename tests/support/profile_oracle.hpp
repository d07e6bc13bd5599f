// Rank-pair-by-rank-pair LeafCommProfile builder: the oracle for
// make_leaf_comm_profile's run-interval lowering.
//
// Streams every rank pair of every schedule step through
// for_each_schedule_step, maps each rank to its node and leaf slot, and
// dedups each step's slot-pair set into first-appearance classes through an
// ordered map. O(rank pairs): O(p log p) for RD/RHVD, O(p^2) for alltoall.
// make_leaf_comm_profile must return a profile equal to this one in every
// field.
#pragma once

#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"

namespace commsched {

/// The profile of `pattern` at nprocs = shape.total_nodes * ranks_per_node
/// ranks (block distribution), built pair by pair.
LeafCommProfile oracle_leaf_comm_profile(Pattern pattern, double base_msize,
                                         const ShapeKey& shape,
                                         int ranks_per_node);

}  // namespace commsched

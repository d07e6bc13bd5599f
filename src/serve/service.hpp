// In-process core of the allocator daemon (DESIGN.md "Allocator service").
//
// AllocatorService is the deterministic request -> reply state machine the
// socket server (serve/server.hpp) fronts: one immutable Tree, one
// ClusterState, one warm CommCache and one allocator instance per
// registered policy, answering the select-plugin-shaped protocol messages
// (serve/protocol.hpp). It contains *no* networking, no clocks and no
// threads, which is what makes the daemon's determinism contract testable:
// replaying the same request sequence into a fresh service — in process or
// across a daemon restart — produces bit-identical replies, and every
// reply equals what an inline Allocator::select() plus
// CostModel::candidate_cost() on the same state would return (pinned by
// tests/serve/server_diff_test.cpp).
//
// Idempotency: alloc/release request ids are remembered in a bounded FIFO
// window; a re-sent id inside the window returns the stored reply without
// touching the cluster state, so clients can retry over a broken
// connection without double-allocating. TIMEOUT/REJECTED answers are
// produced by the server *before* the service runs and are never cached —
// a retried id gets the real answer.
//
// Concurrency: handle() is NOT internally synchronized. The server calls
// it only from its one loop thread (the cluster state is one shared
// resource, exactly like slurmctld's select plugin lock); everything
// reachable from handle() is audited by the contracts gate's
// thread-safety family.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "audit/auditor.hpp"
#include "collectives/comm_cache.hpp"
#include "core/allocator_factory.hpp"
#include "core/cost_model.hpp"
#include "serve/protocol.hpp"
#include "topology/tree.hpp"

namespace commsched::serve {

struct ServiceOptions {
  /// Policy answering requests with allocator == kServerAllocator.
  AllocatorKind default_allocator = AllocatorKind::kAdaptive;
  /// Pricing options handed to the allocators (hop-bytes weighting like
  /// SchedOptions); reply costs always report the unweighted Eq. 6 value.
  CostOptions cost_options{.hop_bytes = true};
  SaOptions sa{};
  double base_msize = double{1 << 20};
  /// Replies remembered for idempotent retry, FIFO-evicted. Retries must
  /// arrive within this many subsequent alloc/release requests.
  std::size_t idempotency_window = 1u << 16;
  /// Runtime invariant auditing; unset reads COMMSCHED_AUDIT.
  std::optional<AuditLevel> audit{};
};

struct ServiceCounters {
  std::uint64_t served = 0;  ///< requests answered (including cached hits)
  std::uint64_t allocs = 0;
  std::uint64_t releases = 0;
  std::uint64_t no_fit = 0;
  std::uint64_t idempotent_hits = 0;
  std::uint64_t bad_requests = 0;
};

class AllocatorService {
 public:
  explicit AllocatorService(const Tree& tree, ServiceOptions options = {});

  /// Answer one request. Deterministic in the request sequence; never
  /// throws on any decodable request (invalid values -> kBadRequest).
  /// Not internally synchronized — callers serialize.
  void handle(const Request& request, Reply& out);

  const ServiceCounters& counters() const noexcept { return counters_; }
  const ClusterState& state() const noexcept { return state_; }
  const Tree& tree() const noexcept { return *tree_; }
  const ServiceOptions& options() const noexcept { return options_; }

 private:
  void handle_alloc(const Request& request, Reply& out);
  void handle_release(const Request& request, Reply& out);
  void fill_query(Reply& out) const;
  /// Allocator for a request's policy byte; nullptr on an invalid byte.
  Allocator* allocator_for(std::uint8_t code);
  void remember(std::uint64_t req_id, const Reply& reply);
  /// Stored reply for a seen request id, nullptr otherwise.
  const Reply* recall(std::uint64_t req_id) const;

  const Tree* tree_;
  ServiceOptions options_;
  ClusterState state_;
  std::shared_ptr<CommCache> cache_;
  CostModel metric_model_;  ///< unweighted Eq. 6 (the reported cost)
  StateAuditor auditor_;
  CostWorkspace workspace_;
  std::array<std::unique_ptr<Allocator>,
             static_cast<std::size_t>(AllocatorKind::kSa) + 1>
      allocators_;  // lazily constructed per kind
  std::vector<NodeId> nodes_scratch_;

  std::unordered_map<std::uint64_t, Reply> replay_;
  std::deque<std::uint64_t> replay_order_;  // FIFO eviction
  ServiceCounters counters_;
};

}  // namespace commsched::serve

#include "serve/service.hpp"

#include <cmath>

#include "core/degradation_model.hpp"
#include "util/assert.hpp"

namespace commsched::serve {

namespace {

/// Reset every reply field to its default for a fresh answer, keeping the
/// node vector's capacity (the server's loop reuses one Reply).
void reset_reply(Reply& reply, MsgType type, std::uint64_t req_id) {
  reply.type = type;
  reply.req_id = req_id;
  reply.status = ServeStatus::kOk;
  reply.cost = 0.0;
  reply.nodes.clear();
  reply.freed = 0;
  reply.total_nodes = 0;
  reply.free_nodes = 0;
  reply.running_jobs = 0;
  reply.served = 0;
  reply.allocs = 0;
  reply.releases = 0;
  reply.no_fit = 0;
  reply.idempotent_hits = 0;
  reply.bad_requests = 0;
  reply.rejected = 0;
  reply.timeouts = 0;
  reply.version = kProtocolVersion;
  reply.max_frame = static_cast<std::uint32_t>(kMaxFramePayload);
}

bool valid_fraction(double f) {
  return std::isfinite(f) && f >= 0.0 && f <= 1.0;
}

}  // namespace

AllocatorService::AllocatorService(const Tree& tree, ServiceOptions options)
    : tree_(&tree),
      options_(options),
      state_(tree),
      cache_(std::make_shared<CommCache>(options.base_msize)),
      metric_model_(tree,
                    CostOptions{.hop_bytes = false,
                                .include_candidate =
                                    options.cost_options.include_candidate}),
      auditor_(tree,
               options.audit ? *options.audit : audit_level_from_env()) {}

void AllocatorService::handle(const Request& request, Reply& out) {
  reset_reply(out, reply_type_for(request.type), request.req_id);
  switch (request.type) {
    case MsgType::kHello:
      if (request.version != kProtocolVersion)
        out.status = ServeStatus::kBadRequest;
      break;
    case MsgType::kAlloc:
      handle_alloc(request, out);
      break;
    case MsgType::kRelease:
      handle_release(request, out);
      break;
    case MsgType::kQuery:
      fill_query(out);
      break;
    case MsgType::kDrain:
      break;  // acknowledged; the server performs the drain
    default:
      out.type = MsgType::kErrorReply;
      out.status = ServeStatus::kBadRequest;
      ++counters_.bad_requests;
      break;
  }
  ++counters_.served;
}

void AllocatorService::handle_alloc(const Request& request, Reply& out) {
  if (const Reply* cached = recall(request.req_id)) {
    ++counters_.idempotent_hits;
    out = *cached;
    return;
  }
  Allocator* allocator = allocator_for(request.allocator);
  if (request.job < 0 || request.num_nodes <= 0 || allocator == nullptr ||
      !std::isfinite(request.msize) || request.msize <= 0.0 ||
      !valid_fraction(request.comm_fraction) ||
      !valid_fraction(request.io_fraction) ||
      request.comm_fraction + request.io_fraction > 1.0) {
    out.status = ServeStatus::kBadRequest;
    ++counters_.bad_requests;
    return;
  }
  if (state_.has_job(request.job)) {
    out.status = ServeStatus::kDuplicateJob;
    remember(request.req_id, out);
    return;
  }
  AllocationRequest areq;
  areq.job = request.job;
  areq.num_nodes = request.num_nodes;
  areq.comm_intensive = request.comm_intensive;
  areq.pattern = request.pattern;
  areq.msize = request.msize;
  areq.io_intensive = request.io_intensive;
  areq.comm_fraction = request.comm_fraction;
  areq.io_fraction = request.io_fraction;
  if (!allocator->select_into(state_, areq, nodes_scratch_)) {
    out.status = ServeStatus::kNoFit;
    ++counters_.no_fit;
    remember(request.req_id, out);
    return;
  }
  // Reported metric: the paper's unweighted Eq. 6 candidate cost, priced on
  // the pre-commit state exactly like the simulator's start_job.
  const bool price_comm = request.comm_intensive && request.num_nodes >= 2;
  if (price_comm) {
    const LeafCommProfile& profile = cache_->profile(
        request.pattern, /*ranks_per_node=*/1,
        make_shape_key(*tree_, nodes_scratch_));
    out.cost = metric_model_.candidate_cost(state_, nodes_scratch_,
                                            /*comm_intensive=*/true, profile,
                                            workspace_);
    if (auditor_.enabled())
      auditor_.check_cost(out.cost, request.job, "Eq. 6 cost");
  }
  const LoadUnits load =
      DegradationModel::quantize_load(price_comm, request.comm_fraction);
  state_.allocate(request.job, request.comm_intensive, nodes_scratch_,
                  request.io_intensive, load);
  auditor_.on_allocate(state_, request.job, nodes_scratch_, load);
  out.nodes.reserve(nodes_scratch_.size());
  for (const NodeId n : nodes_scratch_)
    out.nodes.push_back(static_cast<std::uint32_t>(n));
  ++counters_.allocs;
  remember(request.req_id, out);
}

void AllocatorService::handle_release(const Request& request, Reply& out) {
  if (const Reply* cached = recall(request.req_id)) {
    ++counters_.idempotent_hits;
    out = *cached;
    return;
  }
  if (request.job < 0) {
    out.status = ServeStatus::kBadRequest;
    ++counters_.bad_requests;
    return;
  }
  if (!state_.has_job(request.job)) {
    out.status = ServeStatus::kUnknownJob;
    remember(request.req_id, out);
    return;
  }
  state_.release_into(request.job, nodes_scratch_);
  auditor_.on_release(state_, request.job, nodes_scratch_);
  out.freed = static_cast<std::uint32_t>(nodes_scratch_.size());
  ++counters_.releases;
  remember(request.req_id, out);
}

void AllocatorService::fill_query(Reply& out) const {
  out.total_nodes = static_cast<std::uint32_t>(state_.total_nodes());
  out.free_nodes = static_cast<std::uint32_t>(state_.total_free());
  out.running_jobs = static_cast<std::uint32_t>(state_.job_count());
  out.served = counters_.served;
  out.allocs = counters_.allocs;
  out.releases = counters_.releases;
  out.no_fit = counters_.no_fit;
  out.idempotent_hits = counters_.idempotent_hits;
  out.bad_requests = counters_.bad_requests;
  // rejected/timeouts happen in the server layer, which overlays them.
}

Allocator* AllocatorService::allocator_for(std::uint8_t code) {
  AllocatorKind kind = options_.default_allocator;
  if (code != kServerAllocator) {
    if (code > static_cast<std::uint8_t>(AllocatorKind::kSa)) return nullptr;
    kind = static_cast<AllocatorKind>(code);
  }
  auto& slot = allocators_[static_cast<std::size_t>(kind)];
  if (!slot)
    slot = make_allocator(kind, options_.cost_options, cache_, options_.sa);
  return slot.get();
}

void AllocatorService::remember(std::uint64_t req_id, const Reply& reply) {
  if (options_.idempotency_window == 0) return;
  const auto [it, inserted] = replay_.try_emplace(req_id, reply);
  if (!inserted) return;  // keep the first answer for a duplicate id
  replay_order_.push_back(req_id);
  while (replay_order_.size() > options_.idempotency_window) {
    replay_.erase(replay_order_.front());
    replay_order_.pop_front();
  }
}

const Reply* AllocatorService::recall(std::uint64_t req_id) const {
  const auto it = replay_.find(req_id);
  return it == replay_.end() ? nullptr : &it->second;
}

}  // namespace commsched::serve

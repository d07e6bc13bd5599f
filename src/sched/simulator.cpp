#include "sched/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <tuple>

#include "audit/auditor.hpp"
#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/allocator_common.hpp"
#include "core/default_allocator.hpp"
#include "core/io_model.hpp"
#include "util/assert.hpp"
#include "util/index_set.hpp"

namespace commsched {

namespace {

struct Completion {
  double time = 0.0;
  std::size_t job_index = 0;  // index into the log
  bool operator<(const Completion& other) const {
    if (time != other.time) return time < other.time;
    return job_index < other.job_index;  // deterministic tie-break
  }
};

// Indexed min-heap over completion events, replacing std::priority_queue so
// dynamic re-evaluation can reschedule a running job's end in O(log n)
// (sift the one moved entry) instead of rebuilding the queue. The key order
// (time, job_index) is total, so the pop sequence is fully determined by the
// heap's *contents* — both engines produce bit-identical event streams no
// matter in which order they fixed up the entries.
class CompletionHeap {
 public:
  void reset(std::size_t n_jobs, std::size_t capacity) {
    pos_.assign(n_jobs, kNone);
    heap_.reserve(capacity);
  }
  bool empty() const { return heap_.empty(); }
  const Completion& top() const { return heap_.front(); }

  // hot-path: no-alloc
  void push(double time, std::size_t job_index) {
    COMMSCHED_ASSERT_MSG(pos_[job_index] == kNone,
                         "job already has a completion scheduled");
    // contract-trusted: no-alloc: capacity reserved up front to the trace's
    // peak concurrency (reset() in the simulation constructor)
    heap_.push_back({time, job_index});
    pos_[job_index] = heap_.size() - 1;
    sift_up(heap_.size() - 1);
  }

  // hot-path: no-alloc
  void pop() {
    pos_[heap_.front().job_index] = kNone;
    if (heap_.size() > 1) {
      heap_.front() = heap_.back();
      pos_[heap_.front().job_index] = 0;
    }
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  /// Reschedule the pending completion of `job_index` to `time` — the
  /// re-evaluation fix-up. The entry sifts from its tracked position.
  // hot-path: no-alloc
  void update(std::size_t job_index, double time) {
    const std::size_t at = pos_[job_index];
    COMMSCHED_ASSERT_MSG(at != kNone, "rescheduling a job with no completion");
    const double old_time = heap_[at].time;
    heap_[at].time = time;
    if (time < old_time)
      sift_up(at);
    else if (old_time < time)
      sift_down(at);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // hot-path: no-alloc
  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(heap_[i] < heap_[parent])) break;
      swap_entries(i, parent);
      i = parent;
    }
  }

  // hot-path: no-alloc
  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t smallest = i;
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < n && heap_[l] < heap_[smallest]) smallest = l;
      if (r < n && heap_[r] < heap_[smallest]) smallest = r;
      if (smallest == i) return;
      swap_entries(i, smallest);
      i = smallest;
    }
  }

  void swap_entries(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[heap_[a].job_index] = a;
    pos_[heap_[b].job_index] = b;
  }

  std::vector<Completion> heap_;
  std::vector<std::size_t> pos_;  // log index -> heap slot (kNone if absent)
};

struct RunningInfo {
  double est_end = 0.0;  // start + walltime: what the scheduler believes
  int num_nodes = 0;
  // Dynamic-interference state (only meaningful when degradation is on):
  // the factor most recently applied to this job and the completion time it
  // implies. est_end doubles as the walltime kill time, so the live heap key
  // is min(end_dyn, est_end) under enforce_walltime.
  double factor = 1.0;
  double end_dyn = 0.0;
};

// Fast-engine running-set entry, kept sorted by (est_end, num_nodes, idx).
// That order is consistent with the reference engine's std::sort over
// (est_end, num_nodes) pairs: entries equal in both keys contribute
// identically to the head-reservation accumulation scan, so the extra idx
// tie-break changes nothing observable while making the order total (needed
// for the binary-search erase on completion).
struct RunEntry {
  double est_end = 0.0;
  int num_nodes = 0;
  std::size_t idx = 0;
  bool operator<(const RunEntry& other) const {
    if (est_end != other.est_end) return est_end < other.est_end;
    if (num_nodes != other.num_nodes) return num_nodes < other.num_nodes;
    return idx < other.idx;
  }
};

class Simulation {
 public:
  Simulation(const Tree& tree, const JobLog& log, const SchedOptions& options)
      : tree_(tree),
        log_(log),
        options_(options),
        state_(tree),
        comm_cache_(std::make_shared<CommCache>(
            log.empty() ? double{1 << 20} : log.front().msize)),
        allocator_(make_allocator(
            options.allocator, options.cost_options, comm_cache_,
            sa_options_for(options.sa,
                           options.audit.value_or(audit_level_from_env())))),
        model_(tree, options.cost_options),
        io_model_(tree),
        degrade_(tree, options.degradation, options.runtime_options),
        dynamic_(options.degradation.enabled),
        auditor_(tree, options.audit.value_or(audit_level_from_env())) {
    results_.resize(log.size());
    running_info_.resize(log.size());
    // Per-job communication load, the quantity the ClusterState accumulators
    // track: comm-intensive multi-node jobs only, mirroring the price_comm
    // predicate in start_job. Precomputed because the colocation queue order
    // keys on it.
    load_of_.resize(log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
      load_of_[i] = DegradationModel::quantize_load(
          priced_by_eq6(log[i].comm_intensive, log[i].num_nodes),
          log[i].comm_fraction);
    // At most one outstanding completion per running job, and each job holds
    // at least one node, so the heap never outgrows the machine (or the log).
    completions_.reset(log.size(),
                       std::min(log.size(),
                                static_cast<std::size_t>(tree.node_count())));
    if (options_.engine == SimEngine::kFast) {
      running_sorted_.reserve(
          std::min(log.size(), static_cast<std::size_t>(tree.node_count())));
      build_queue_ranks();
      if (dynamic_) {
        leaf_jobs_.resize(static_cast<std::size_t>(tree.leaf_count()));
        leaf_mark_.assign(static_cast<std::size_t>(tree.leaf_count()), 0);
        job_mark_.assign(log.size(), 0);
      }
    }
  }

  SimResult run() {
    validate_log();
    std::size_t next_submit = 0;
    double makespan = 0.0;

    while (next_submit < log_.size() || !completions_.empty() ||
           !queue_empty()) {
      // Next event: completions win ties so freed nodes are visible to jobs
      // submitted at the same instant.
      double t;
      const bool have_completion = !completions_.empty();
      const bool have_submit = next_submit < log_.size();
      COMMSCHED_ASSERT_MSG(have_completion || have_submit,
                           "queue is non-empty but no future event exists — "
                           "a pending job can never start");
      if (have_completion &&
          (!have_submit || completions_.top().time <= log_[next_submit].submit_time))
        t = completions_.top().time;
      else
        t = log_[next_submit].submit_time;

      while (!completions_.empty() && completions_.top().time <= t) {
        const Completion c = completions_.top();
        if (auditor_.enabled()) {
          auditor_.on_event(c.time, "end job", log_[c.job_index].id);
          auditor_.check_end_event(state_, job_id(c.job_index), c.time);
        }
        completions_.pop();
        if (dynamic_) finalize_dynamic(c.job_index, c.time);
        state_.release_into(job_id(c.job_index), freed_scratch_);
        if (auditor_.enabled())
          auditor_.on_release(state_, job_id(c.job_index), freed_scratch_);
        running_remove(c.job_index);
        if (dynamic_ && options_.engine == SimEngine::kFast)
          leaf_jobs_remove(c.job_index, freed_scratch_);
        // The freed load deflates every co-located running job: rescale
        // their remaining time at the release instant and fix up the heap.
        if (dynamic_) reevaluate(c.time, c.job_index, freed_scratch_);
        makespan = std::max(makespan, c.time);
        emit(TraceEvent::Kind::kEnd, c.time, c.job_index);
      }
      while (next_submit < log_.size() &&
             log_[next_submit].submit_time <= t) {
        if (auditor_.enabled())
          auditor_.on_event(log_[next_submit].submit_time, "submit job",
                            log_[next_submit].id);
        emit(TraceEvent::Kind::kSubmit, log_[next_submit].submit_time,
             next_submit);
        queue_push(next_submit);
        ++next_submit;
      }
      if (options_.engine == SimEngine::kFast)
        try_schedule_fast(t);
      else
        try_schedule_reference(t);
      auditor_.check_state(state_);  // no-op below AuditLevel::kFull
    }

    SimResult result;
    result.allocator_name = allocator_->name();
    result.jobs = std::move(results_);
    result.makespan = makespan;
    const CommCache::Stats& cache = comm_cache_->stats();
    result.cache_stats = {cache.profile_hits, cache.profile_misses};
    return result;
  }

 private:
  static JobId job_id(std::size_t log_index) {
    return static_cast<JobId>(log_index) + 1;
  }

  void emit(TraceEvent::Kind kind, double time, std::size_t idx) const {
    if (!options_.trace) return;
    TraceEvent event;
    event.kind = kind;
    event.time = time;
    event.job = log_[idx].id;
    event.num_nodes = log_[idx].num_nodes;
    options_.trace(event);
  }

  void validate_log() const {
    double prev_submit = 0.0;
    for (const auto& job : log_) {
      COMMSCHED_ASSERT_MSG(job.num_nodes >= 1 &&
                               job.num_nodes <= tree_.node_count(),
                           "job does not fit the machine");
      COMMSCHED_ASSERT_GT_MSG(job.runtime, 0.0,
                              "job runtime must be positive");
      COMMSCHED_ASSERT_GE_MSG(job.walltime, job.runtime,
                              "walltime below runtime");
      COMMSCHED_ASSERT_LE_MSG(job.comm_fraction + job.io_fraction,
                              1.0 + 1e-12,
                              "comm and I/O fractions exceed the runtime");
      COMMSCHED_ASSERT_GE_MSG(job.submit_time, prev_submit,
                              "log must be sorted by submit time");
      prev_submit = job.submit_time;
    }
  }

  // ---- Queue structure, engine-dispatched --------------------------------
  //
  // The reference engine keeps the original deque re-sorted with
  // std::stable_sort on every scheduling pass. The fast engine exploits the
  // fact that the ordering keys (walltime / node count) never change: the
  // repeated stable sort converges to the static total order by
  // (key, log index), so one upfront stable sort fixes every job's queue
  // rank for the whole run, and the pending queue shrinks to a hierarchical
  // bitmap over those ranks — O(log64 n) insert/erase/successor and zero
  // steady-state allocation, with iteration order bit-identical to the
  // reference deque after its re-sort (new submissions always carry larger
  // log indices than anything already pending, so stability ≡ index order).

  bool queue_empty() const {
    return options_.engine == SimEngine::kFast ? pending_set_.empty()
                                               : pending_.empty();
  }

  void queue_push(std::size_t idx) {
    if (options_.engine == SimEngine::kFast)
      pending_insert(rank_of_[idx]);
    else
      pending_.push_back(idx);
  }

  void build_queue_ranks() {
    const std::size_t n = log_.size();
    idx_of_rank_.resize(n);
    for (std::size_t i = 0; i < n; ++i) idx_of_rank_[i] = i;
    if (options_.queue_policy != QueuePolicy::kFifo) {
      std::stable_sort(
          idx_of_rank_.begin(), idx_of_rank_.end(),
          [&](std::size_t a, std::size_t b) { return queue_before(a, b); });
    }
    rank_of_.resize(n);
    nodes_of_rank_.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      rank_of_[idx_of_rank_[r]] = r;
      nodes_of_rank_[r] = log_[idx_of_rank_[r]].num_nodes;
    }
    pending_set_.reset(n);
    word_floor_.assign((n + kWordBits - 1) / kWordBits, kEmptyFloor);
  }

  // The fast engine's pending set and its per-word floors move together: an
  // insert lowers its word's floor, an erase re-derives it only when the
  // erased job held it.
  // hot-path: no-alloc
  void pending_insert(std::size_t r) {
    pending_set_.insert(r);
    int& floor = word_floor_[r / kWordBits];
    floor = std::min(floor, nodes_of_rank_[r]);
  }

  // hot-path: no-alloc
  void pending_erase(std::size_t r) {
    pending_set_.erase(r);
    const std::size_t w = r / kWordBits;
    if (nodes_of_rank_[r] != word_floor_[w]) return;
    int floor = kEmptyFloor;
    for (std::uint64_t bits = pending_set_.word(w); bits != 0;
         bits &= bits - 1)
      floor = std::min(floor, nodes_of_rank_[w * kWordBits +
                                             static_cast<std::size_t>(
                                                 std::countr_zero(bits))]);
    word_floor_[w] = floor;
  }

  // ---- Running set, engine-dispatched ------------------------------------

  // hot-path: no-alloc
  void running_add(std::size_t idx, double est_end, int num_nodes) {
    running_info_[idx] = {est_end, num_nodes};
    if (options_.engine == SimEngine::kFast) {
      const RunEntry entry{est_end, num_nodes, idx};
      const auto pos = std::lower_bound(running_sorted_.begin(),
                                        running_sorted_.end(), entry);
      // contract-trusted: no-alloc: capacity reserved up front to the
      // trace's peak concurrency (see the constructor's reserve)
      running_sorted_.insert(pos, entry);
    } else {
      // contract-trusted: no-alloc: reference engine; bounded by peak
      // concurrent jobs, capacity reused across the run
      running_.push_back(idx);
    }
  }

  void running_remove(std::size_t idx) {
    if (options_.engine == SimEngine::kFast) {
      const RunEntry entry{running_info_[idx].est_end,
                           running_info_[idx].num_nodes, idx};
      const auto pos = std::lower_bound(running_sorted_.begin(),
                                        running_sorted_.end(), entry);
      COMMSCHED_ASSERT_MSG(pos != running_sorted_.end() && pos->idx == idx,
                           "running set out of sync with completion");
      running_sorted_.erase(pos);
    } else {
      std::erase(running_, idx);
    }
  }

  // Ask the policy for nodes into the reusable scratch buffer. The count
  // pre-check is only an optimization: policies such as `exclusive` may
  // refuse a job the count test admits.
  // hot-path: no-alloc
  bool try_select_into(std::size_t idx, std::vector<NodeId>& out) {
    const JobRecord& job = log_[idx];
    if (state_.total_free() < job.num_nodes) {
      out.clear();
      return false;
    }
    if (!allocator_->select_into(state_, request_for(idx), out)) return false;
    // kColocation admission gate: defer a communication-intensive job while
    // the antagonist load already on its prospective leaves is too high
    // (own_load = 0: the job is not committed, nothing to subtract). The
    // deferral cannot live-lock — a positive external load implies a running
    // job, hence a pending completion event that will lower it.
    if (options_.queue_policy == QueuePolicy::kColocation &&
        load_of_[idx] > 0 &&
        degrade_.external_load(state_, out, 0, degrade_ws_) >
            options_.coloc_max_external) {
      out.clear();
      return false;
    }
    return true;
  }

  // hot-path: no-alloc
  AllocationRequest request_for(std::size_t idx) const {
    const JobRecord& job = log_[idx];
    AllocationRequest request;
    request.job = job_id(idx);
    request.num_nodes = job.num_nodes;
    request.comm_intensive = job.comm_intensive;
    request.pattern = job.pattern;
    request.msize = job.msize;
    request.io_intensive = job.io_intensive;
    request.comm_fraction = job.comm_fraction;
    request.io_fraction = job.io_fraction;
    return request;
  }

  // ---- Reference engine: the original O(n log n)-per-event loop ----------

  // Reorder the pending queue per the configured policy. FIFO keeps submit
  // order; the alternatives sort stably so equal keys stay FIFO.
  void apply_queue_policy() {
    if (options_.queue_policy == QueuePolicy::kFifo) return;
    std::stable_sort(
        pending_.begin(), pending_.end(),
        [&](std::size_t a, std::size_t b) { return queue_before(a, b); });
  }

  // Strict-weak queue order for the non-FIFO policies; ties stay FIFO via
  // the callers' stable sorts. kColocation ranks by quantized communication
  // load ascending — a *static* key, so the fast engine's precomputed ranks
  // stay valid; the dynamic half of the policy is the admission gate in
  // try_select_into.
  bool queue_before(std::size_t a, std::size_t b) const {
    switch (options_.queue_policy) {
      case QueuePolicy::kShortestJobFirst:
        return log_[a].walltime < log_[b].walltime;
      case QueuePolicy::kColocation:
        return load_of_[a] < load_of_[b];
      default:
        return log_[a].num_nodes < log_[b].num_nodes;
    }
  }

  void try_schedule_reference(double t) {
    apply_queue_policy();
    // FIFO phase: start queue-head jobs while the policy grants them nodes.
    while (!pending_.empty()) {
      const std::size_t head = pending_.front();
      if (!try_select_into(head, select_scratch_)) break;
      start_job(head, t, select_scratch_);
      pending_.pop_front();
    }
    if (pending_.empty() || !options_.easy_backfill) return;
    backfill_reference(t);
  }

  // EASY backfill: reserve the head job's start, then let later jobs jump
  // ahead only when they cannot delay that reservation.
  void backfill_reference(double t) {
    int examined = 0;
    // The head reservation depends only on the running set and the free-node
    // count, both of which change within this pass only when a backfilled
    // job actually starts — so compute it once and refresh after starts
    // instead of re-sorting the running jobs per examined candidate.
    auto reservation = head_reservation_reference();
    for (std::size_t qi = 1; qi < pending_.size();) {
      if (++examined > options_.backfill_depth) break;
      const auto [shadow_time, extra_nodes] = reservation;
      const std::size_t idx = pending_[qi];
      const JobRecord& job = log_[idx];
      const bool harmless = (t + job.walltime <= shadow_time) ||
                            (job.num_nodes <= extra_nodes);
      const bool started = harmless && try_select_into(idx, select_scratch_);
      if (started) {
        auditor_.check_backfill(t, job_id(idx), job.walltime, job.num_nodes,
                                shadow_time, extra_nodes);
        start_job(idx, t, select_scratch_);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(qi));
        reservation = head_reservation_reference();
      } else {
        ++qi;
      }
    }
  }

  // When (by walltime estimates) the queue head can start, and how many
  // nodes beyond its need will be free at that time.
  std::pair<double, int> head_reservation_reference() {
    const int needed = log_[pending_.front()].num_nodes;
    std::vector<std::pair<double, int>> ends;  // (est_end, nodes)
    ends.reserve(running_.size());
    for (const std::size_t idx : running_)
      ends.emplace_back(running_info_[idx].est_end,
                        running_info_[idx].num_nodes);
    std::sort(ends.begin(), ends.end());
    int available = state_.total_free();
    for (const auto& [end, nodes] : ends) {
      available += nodes;
      if (available >= needed) return {end, available - needed};
    }
    COMMSCHED_ASSERT_MSG(false,
                         "head job cannot start even with an empty machine");
    return {0.0, 0};
  }

  // ---- Fast engine: indexed queue + incremental reservation --------------

  // hot-path: no-alloc
  void try_schedule_fast(double t) {
    // FIFO phase over the rank bitmap: identical visit order to the
    // reference deque after its re-sort (see build_queue_ranks).
    while (!pending_set_.empty()) {
      const std::size_t head_rank = pending_set_.first();
      const std::size_t head = idx_of_rank_[head_rank];
      if (!try_select_into(head, select_scratch_)) break;
      start_job(head, t, select_scratch_);
      pending_erase(head_rank);
    }
    if (pending_set_.empty() || !options_.easy_backfill) return;
    backfill_fast(t);
  }

  // The reference's candidate loop, one 64-rank word at a time. The same
  // candidates count against backfill_depth: the first backfill_depth
  // pending ranks after the head, starts included. try_select_into refuses
  // a job larger than the free count before any policy runs, and that count
  // changes within a pass only at a start, so a word whose floor exceeds it
  // holds no job that could start: it is skipped whole, its jobs counted by
  // popcount. In a word that is walked, only a job that fits the count
  // reads its log record; the head reservation is computed for the first
  // such job and again after each start.
  // hot-path: no-alloc
  void backfill_fast(double t) {
    int budget = options_.backfill_depth;  // candidates left to examine
    int free_nodes = state_.total_free();
    bool reserved = false;
    double shadow_time = 0.0;
    int extra_nodes = 0;
    const std::size_t head_rank = pending_set_.first();
    std::size_t w = head_rank / kWordBits;
    // The head's word, from the rank after the head on.
    std::uint64_t bits = pending_set_.word(w) &
                         ~(~std::uint64_t{0} >>
                           (kWordBits - 1 - head_rank % kWordBits));
    for (;;) {
      if (word_floor_[w] > free_nodes) {
        const int count = std::popcount(bits);
        if (count >= budget) return;
        budget -= count;
      } else {
        for (; bits != 0; bits &= bits - 1) {
          if (budget <= 0) return;
          --budget;
          const std::size_t r =
              w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
          if (nodes_of_rank_[r] > free_nodes) continue;
          if (!reserved) {
            std::tie(shadow_time, extra_nodes) = head_reservation_fast();
            reserved = true;
          }
          const std::size_t idx = idx_of_rank_[r];
          const JobRecord& job = log_[idx];
          const bool harmless = (t + job.walltime <= shadow_time) ||
                                (job.num_nodes <= extra_nodes);
          if (!harmless || !try_select_into(idx, select_scratch_)) continue;
          auditor_.check_backfill(t, job_id(idx), job.walltime, job.num_nodes,
                                  shadow_time, extra_nodes);
          start_job(idx, t, select_scratch_);
          pending_erase(r);
          free_nodes = state_.total_free();
          reserved = false;
        }
      }
      // The next word holding a pending job.
      const std::size_t last = w * kWordBits + (kWordBits - 1);
      if (last + 1 >= pending_set_.universe()) return;
      const std::size_t next_rank = pending_set_.next(last);
      if (next_rank == IndexSet::npos) return;
      w = next_rank / kWordBits;
      bits = pending_set_.word(w);
    }
  }

  // Incremental variant of head_reservation_reference: running_sorted_ is
  // maintained in (est_end, num_nodes, idx) order across starts and ends,
  // so the reservation is a prefix scan instead of a copy + sort.
  // hot-path: no-alloc
  std::pair<double, int> head_reservation_fast() {
    const int needed = log_[idx_of_rank_[pending_set_.first()]].num_nodes;
    int available = state_.total_free();
    for (const RunEntry& entry : running_sorted_) {
      available += entry.num_nodes;
      if (available >= needed) return {entry.est_end, available - needed};
    }
    COMMSCHED_ASSERT_MSG(false,
                         "head job cannot start even with an empty machine");
    return {0.0, 0};
  }

  // ---- Shared job-start path (pricing + commit), both engines ------------

  // hot-path: no-alloc
  void start_job(std::size_t idx, double t, const std::vector<NodeId>& nodes) {
    const JobRecord& job = log_[idx];
    const AllocationRequest request = request_for(idx);
    const bool is_default = options_.allocator == AllocatorKind::kDefault;
    const bool price_comm = priced_by_eq6(job.comm_intensive, job.num_nodes);
    const bool price_io = job.io_intensive && job.io_fraction > 0.0;

    // What stock SLURM would have done with this very state — the Eq. 7
    // baseline for both the communication and the I/O terms.
    const std::vector<NodeId>& default_nodes = default_scratch_;
    if (!is_default && (price_comm || price_io)) {
      const bool have_default =
          default_allocator_.select_into(state_, request, default_scratch_);
      COMMSCHED_ASSERT(have_default);
    }

    double cost = 0.0;
    double cost_default = 0.0;
    double priced = 0.0, priced_default = 0.0;  // comm pricing metric
    const LeafCommProfile* profile = nullptr;
    if (price_comm) {
      // Both Eq. 6 sums of the chosen placement: the price the policy handed
      // on from the select that produced `nodes`, on this very state, or one
      // walk. The Eq. 7 baseline is the default placement, priced only when
      // it is not the very node list just priced.
      const PricedPlacement chosen =
          price_selected(*allocator_, model_, *comm_cache_, state_, nodes,
                         request, workspace_);
      profile = chosen.profile;
      CandidateCosts baseline = chosen.costs;
      if (!is_default && default_nodes != nodes)
        baseline = price_selected(default_allocator_, model_, *comm_cache_,
                                  state_, default_nodes, request, workspace_)
                       .costs;
      // Recorded metric: the paper's unweighted Eq. 6 cost (Figure 8); the
      // runtime ratio uses the (possibly msize-weighted) pricing metric.
      cost = chosen.costs.hops;
      cost_default = baseline.hops;
      priced = model_.selected(chosen.costs);
      priced_default = model_.selected(baseline);
      // A handed-on price must still fit the placement: it was priced on
      // the pre-allocation state, which is still intact here.
      if (allocator_->last_priced() != nullptr)
        auditor_.check_reused_cost(model_, state_, nodes, job.comm_intensive,
                                   *profile, chosen.costs, request.job);
    }
    double io_cost = 0.0, io_cost_default = 0.0;
    if (price_io) {
      io_cost = io_model_.candidate_cost(state_, nodes, job.io_intensive);
      io_cost_default =
          is_default ? io_cost
                     : io_model_.candidate_cost(state_, default_nodes,
                                                job.io_intensive);
    }

    double actual_runtime = job.runtime;
    if (!is_default && (price_comm || price_io))
      actual_runtime = modified_runtime_with_io(
          job.runtime, price_comm ? job.comm_fraction : 0.0, priced,
          priced_default, price_io ? job.io_fraction : 0.0, io_cost,
          io_cost_default, options_.runtime_options);

    // Static mode clamps the Eq. 7 runtime at allocation time; dynamic mode
    // leaves the base runtime unclamped and lets the walltime cap act on the
    // live heap key instead (effective_end), since deflation may yet bring
    // the job back under its limit.
    bool hit_walltime = false;
    if (!dynamic_ && options_.enforce_walltime &&
        actual_runtime > job.walltime) {
      actual_runtime = job.walltime;
      hit_walltime = true;
    }

    const LoadUnits load = load_of_[idx];
    state_.allocate(request.job, job.comm_intensive, nodes,
                    job.io_intensive, load);
    if (auditor_.enabled()) {
      auditor_.on_event(t, "start job", job.id);
      auditor_.on_allocate(state_, request.job, nodes, load);
      if (price_comm) {
        auditor_.check_cost(cost, request.job, "Eq. 6 cost");
        auditor_.check_cost(cost_default, request.job, "Eq. 6 default cost");
        auditor_.check_cost_symmetry(model_, state_, nodes,
                                     request.job);
        auditor_.check_profile(job.pattern, *profile, nodes, request.job);
      }
      if (price_io) {
        auditor_.check_cost(io_cost, request.job, "I/O cost");
        auditor_.check_cost(io_cost_default, request.job, "I/O default cost");
      }
    }
    running_add(idx, t + job.walltime, job.num_nodes);

    // Initial completion. Dynamic mode inflates the static Eq. 7 runtime by
    // the degradation factor under the load already on the job's leaves
    // (own contribution excluded); zero co-located load gives factor 1 and
    // recovers the static end time bit for bit.
    RunningInfo& info = running_info_[idx];
    info.factor = 1.0;
    info.end_dyn = t + actual_runtime;
    if (dynamic_ && load > 0) {
      info.factor = degrade_.factor(state_, nodes, load, degrade_ws_);
      info.end_dyn = t + actual_runtime * info.factor;
    }
    const double end_key = dynamic_ ? effective_end(idx) : info.end_dyn;
    completions_.push(end_key, idx);
    auditor_.on_end_scheduled(request.job, end_key);
    if (dynamic_ && options_.engine == SimEngine::kFast)
      leaf_jobs_add(idx, nodes);
    emit(TraceEvent::Kind::kStart, t, idx);

    // Dynamic mode records values consistent with the *initial* end key
    // (finalize_dynamic overwrites them if the end later moves); with no
    // effective degradation these are the static Eq. 7 values, bit for bit.
    if (dynamic_) {
      if (options_.enforce_walltime && info.end_dyn > info.est_end) {
        hit_walltime = true;
        actual_runtime = job.walltime;
      } else if (info.factor != 1.0) {
        actual_runtime *= info.factor;
      }
    }

    JobResult& r = results_[idx];
    r.id = job.id;
    r.num_nodes = job.num_nodes;
    r.comm_intensive = job.comm_intensive;
    r.pattern = job.pattern;
    r.submit_time = job.submit_time;
    r.start_time = t;
    r.end_time = end_key;  // dynamic mode re-finalizes at the completion pop
    r.original_runtime = job.runtime;
    r.actual_runtime = actual_runtime;
    r.cost = cost;
    r.cost_default = cost_default;
    r.io_cost = io_cost;
    r.io_cost_default = io_cost_default;
    r.hit_walltime = hit_walltime;

    // The new job's load inflates every running job sharing a leaf with it.
    if (dynamic_ && load > 0) reevaluate(t, idx, nodes);
  }

  // ---- Dynamic interference (DESIGN.md "Dynamic interference") -----------

  // The completion-heap key for a running job: its dynamic end, capped at
  // the walltime kill time when enforcement is on.
  // hot-path: no-alloc
  double effective_end(std::size_t idx) const {
    const RunningInfo& info = running_info_[idx];
    return options_.enforce_walltime ? std::min(info.end_dyn, info.est_end)
                                     : info.end_dyn;
  }

  // Dynamic mode defers end_time/actual_runtime to the completion pop: the
  // end moved with every co-located allocation and release, so only the
  // popped event time is authoritative. A job whose end never moved keeps
  // the values computed at start — so a run with no effective degradation
  // (zero co-located load, or alpha = 0) reproduces the static Eq. 7
  // results bit for bit, not merely within rounding.
  void finalize_dynamic(std::size_t idx, double time) {
    JobResult& r = results_[idx];
    if (time == r.end_time) return;
    r.end_time = time;
    r.actual_runtime = time - r.start_time;
    r.hit_walltime = options_.enforce_walltime &&
                     running_info_[idx].end_dyn > running_info_[idx].est_end;
  }

  // Re-evaluate the running jobs whose co-located load just changed because
  // `changed` (occupying `changed_nodes`) started or ended. The fast engine
  // walks the per-leaf running-job index with epoch stamps (each affected
  // job exactly once); the reference engine scans every running job. They
  // agree bit for bit because rescale() is a no-op whenever the recomputed
  // factor is unchanged — which is exactly the case for every job the fast
  // engine skips — and a genuine rescale reads only the job's own state and
  // the settled load accumulators, so the visit order is immaterial.
  // hot-path: no-alloc
  void reevaluate(double now, std::size_t changed,
                  std::span<const NodeId> changed_nodes) {
    if (options_.engine == SimEngine::kFast) {
      ++epoch_;
      job_mark_[changed] = epoch_;  // the trigger itself is never rescaled
      for (const NodeId n : changed_nodes) {
        const auto li =
            static_cast<std::size_t>(tree_.leaf_index(tree_.leaf_of(n)));
        if (leaf_mark_[li] == epoch_) continue;
        leaf_mark_[li] = epoch_;
        for (const std::size_t j : leaf_jobs_[li]) {
          if (job_mark_[j] == epoch_) continue;
          job_mark_[j] = epoch_;
          rescale(now, j);
        }
      }
    } else {
      for (const std::size_t j : running_)
        if (j != changed) rescale(now, j);
    }
  }

  // Rescale one running job's remaining time to the degradation factor the
  // current load implies, and fix up its heap entry. The remaining fraction
  // of work is preserved: remaining' = remaining * d_new / d_old.
  // hot-path: no-alloc
  void rescale(double now, std::size_t j) {
    if (load_of_[j] == 0) return;  // compute-bound jobs never degrade
    RunningInfo& info = running_info_[j];
    const double d_new = degrade_.factor(state_, state_.job_nodes(job_id(j)),
                                         load_of_[j], degrade_ws_);
    if (d_new == info.factor) return;
    const double remaining = info.end_dyn - now;
    COMMSCHED_ASSERT_GE_MSG(remaining, 0.0,
                            "rescaling a job past its scheduled end");
    info.end_dyn = now + remaining * (d_new / info.factor);
    info.factor = d_new;
    const double end_key = effective_end(j);
    completions_.update(j, end_key);
    auditor_.on_end_scheduled(job_id(j), end_key);
  }

  // Per-leaf index of running jobs (fast engine): which jobs to visit when
  // a leaf's load changes. A job appears once per distinct leaf it touches.
  // hot-path: no-alloc
  void leaf_jobs_add(std::size_t idx, std::span<const NodeId> nodes) {
    ++epoch_;
    for (const NodeId n : nodes) {
      const auto li =
          static_cast<std::size_t>(tree_.leaf_index(tree_.leaf_of(n)));
      if (leaf_mark_[li] == epoch_) continue;
      leaf_mark_[li] = epoch_;
      // contract-trusted: no-alloc: bounded by the leaf's peak concurrent
      // jobs; capacity is reused across the run
      leaf_jobs_[li].push_back(idx);
    }
  }

  // hot-path: no-alloc
  void leaf_jobs_remove(std::size_t idx, std::span<const NodeId> nodes) {
    ++epoch_;
    for (const NodeId n : nodes) {
      const auto li =
          static_cast<std::size_t>(tree_.leaf_index(tree_.leaf_of(n)));
      if (leaf_mark_[li] == epoch_) continue;
      leaf_mark_[li] = epoch_;
      std::erase(leaf_jobs_[li], idx);
    }
  }

  const Tree& tree_;
  const JobLog& log_;
  const SchedOptions& options_;
  ClusterState state_;
  // The run-wide profile cache; declared before allocator_ so it
  // exists when make_allocator hands it to the pricing policies. Exactly one
  // per simulation run.
  std::shared_ptr<CommCache> comm_cache_;
  std::unique_ptr<Allocator> allocator_;
  DefaultAllocator default_allocator_;
  // Eq. 6 pricing: `hops` is recorded in JobResult, the sum the run's
  // CostOptions select feeds the Eq. 7 ratio.
  CostModel model_;
  IoModel io_model_;  // §7 I/O extension
  DegradationModel degrade_;  // colocation degradation (DESIGN.md)
  const bool dynamic_;        // degradation.enabled: runtime re-evaluation on
  CostWorkspace workspace_;   // cost-kernel scratch for model_
  DegradationWorkspace degrade_ws_;  // degradation-kernel scratch
  StateAuditor auditor_;      // runtime invariant checks (src/audit)

  // Reference engine queue/running structures.
  std::deque<std::size_t> pending_;  // log indices, queue order
  std::vector<std::size_t> running_;

  // Fast engine queue/running structures (see build_queue_ranks).
  static constexpr std::size_t kWordBits = IndexSet::kWordBits;
  static constexpr int kEmptyFloor = std::numeric_limits<int>::max();
  IndexSet pending_set_;                  // pending jobs, by queue rank
  std::vector<std::size_t> idx_of_rank_;  // queue rank -> log index
  std::vector<std::size_t> rank_of_;      // log index -> queue rank
  std::vector<int> nodes_of_rank_;        // queue rank -> node count
  // Per 64-rank word of pending_set_: the fewest nodes any of its pending
  // jobs needs (kEmptyFloor when it has none).
  std::vector<int> word_floor_;
  std::vector<RunEntry> running_sorted_;  // (est_end, nodes, idx) ascending

  // Fast-engine dynamic-interference index: per-leaf running jobs, plus
  // epoch stamps that dedupe leaves/jobs within one add/remove/reevaluate
  // pass (a 64-bit counter cannot wrap within a run).
  std::vector<std::vector<std::size_t>> leaf_jobs_;
  std::vector<std::uint64_t> leaf_mark_;
  std::vector<std::uint64_t> job_mark_;
  std::uint64_t epoch_ = 0;

  // Shared state and steady-state scratch (reused capacity, no per-event
  // allocation once warm).
  std::vector<RunningInfo> running_info_;
  std::vector<LoadUnits> load_of_;  // per log index, quantized comm load
  CompletionHeap completions_;
  std::vector<JobResult> results_;
  std::vector<NodeId> select_scratch_;   // policy picks
  std::vector<NodeId> default_scratch_;  // Eq. 7 baseline picks
  std::vector<NodeId> freed_scratch_;    // release_into target
};

}  // namespace

SimResult run_continuous(const Tree& tree, const JobLog& log,
                         const SchedOptions& options) {
  return Simulation(tree, log, options).run();
}

}  // namespace commsched

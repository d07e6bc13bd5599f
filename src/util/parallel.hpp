// Index-parallel fan-out for the campaign engine (src/exp) and any other
// grid of independent work items.
//
// run_indexed(threads, count, fn) calls fn(0..count-1) from
// min(threads, count) worker threads that claim ascending indices from one
// atomic counter, and returns the results in index order. Which worker runs
// an index, and the order in which indices finish, vary from run to run:
// callers that need reproducible output keep fn deterministic per index and
// reduce in index order (see DESIGN.md "Campaign engine & parallel
// execution").
//
// The worker count defaults to the COMMSCHED_THREADS environment variable,
// falling back to std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace commsched {

/// COMMSCHED_THREADS when set (must be a positive integer), otherwise
/// std::thread::hardware_concurrency(), never below 1.
int default_thread_count();

namespace detail {
/// Call body(i) exactly once for every i in [0, count), from
/// min(threads, count) std::jthreads (`threads` <= 0 uses
/// default_thread_count()) that each claim the next index from one atomic
/// counter until none is left. Returns once every worker has joined.
/// `body` must not throw.
void run_workers(int threads, std::size_t count,
                 const std::function<void(std::size_t)>& body);
}  // namespace detail

/// Run `count` independent cells `fn(0..count-1)` on `threads` workers and
/// return the results in index order — bit-identical at any thread count as
/// long as `fn` itself is deterministic per index. Every index runs even
/// when another throws; after the workers join, the exception of the lowest
/// failing index is rethrown on the calling thread. `threads` <= 0 uses
/// default_thread_count().
template <typename T>
std::vector<T> run_indexed(int threads, std::size_t count,
                           const std::function<T(std::size_t)>& fn) {
  COMMSCHED_ASSERT_MSG(static_cast<bool>(fn), "run_indexed needs a callable");
  std::vector<std::optional<T>> slots(count);
  std::vector<std::exception_ptr> errors(count);
  detail::run_workers(threads, count, [&](std::size_t i) {
    try {
      slots[i].emplace(fn(i));
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  std::vector<T> results;
  results.reserve(count);
  for (std::optional<T>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace commsched

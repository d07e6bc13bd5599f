#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "util/strings.hpp"

namespace commsched {

int default_thread_count() {
  if (const char* v = std::getenv("COMMSCHED_THREADS");
      v != nullptr && *v != '\0') {
    const auto parsed = parse_int_at_least(v, 1);
    COMMSCHED_ASSERT_MSG(parsed.has_value(),
                         "COMMSCHED_THREADS must be a positive integer");
    return *parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace detail {

void run_workers(int threads, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  if (threads <= 0) threads = default_thread_count();
  const std::size_t workers =
      std::min(static_cast<std::size_t>(threads), count);
  std::atomic<std::size_t> next{0};
  // Declared after `next`: the jthreads join before the counter they claim
  // from is destroyed, on the exception path of a failed spawn too.
  std::vector<std::jthread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1))
        body(i);
    });
}

}  // namespace detail
}  // namespace commsched

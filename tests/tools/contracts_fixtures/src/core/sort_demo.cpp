#include <algorithm>
#include <vector>

namespace commsched {

// std::stable_sort and std::stable_partition allocate a temporary buffer on
// every call: two violations.
// hot-path: no-alloc
void order_ids(std::vector<int>& ids) {
  std::stable_sort(ids.begin(), ids.end());
  std::stable_partition(ids.begin(), ids.end(), [](int id) { return id > 0; });
}

// std::sort works in place: clean.
// hot-path: no-alloc
void sort_ids(std::vector<int>& ids) {
  std::sort(ids.begin(), ids.end());
}

}  // namespace commsched

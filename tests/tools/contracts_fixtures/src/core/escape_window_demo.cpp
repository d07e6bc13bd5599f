#include <algorithm>
#include <vector>

namespace commsched {

// A fact-level escape covers the one statement after its comment block: the
// push_back is waived, the buffer-allocating stable_sort on the next line is
// still a violation.
// hot-path: no-alloc
void sort_after_push(std::vector<int>& ids, int v) {
  // contract-trusted: no-alloc: capacity reserved by the caller
  ids.push_back(v);
  std::stable_sort(ids.begin(), ids.end());
}

// An escape on the last statement of one body does not annotate the next
// function, however close its signature sits: after_tail's push_back is a
// violation.
// hot-path: no-alloc
void tail_trusted(std::vector<int>& out, int v) {
  // contract-trusted: no-alloc: capacity reserved by the caller
  out.push_back(v);
}
// hot-path: no-alloc
void after_tail(std::vector<int>& out, int v) { out.push_back(v); }

}  // namespace commsched

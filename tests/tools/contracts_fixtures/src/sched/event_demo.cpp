#include <memory>
#include <vector>

namespace commsched {

struct Event {
  int id = 0;
};

// A local owning container inside a hot-path body.
// hot-path: no-alloc
int sum_event(int id) {
  std::vector<int> scratch(4, id);
  return scratch.front() + scratch.back();
}

// A std::make_unique inside a hot-path body.
// hot-path: no-alloc
int box_event(int id) {
  auto boxed = std::make_unique<Event>();
  boxed->id = id;
  return boxed->id;
}

}  // namespace commsched

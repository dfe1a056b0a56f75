// Self-time arithmetic on a synthetic span tree, and the Chrome JSON
// shape.  Exits 1 with a message on the first mismatch.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "spans.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::Span;
  // op [0, 100) with children build [10, 30), run [25, 70) (overlapping
  // build by 5), export [90, 120) (sticking out of the op by 20); run has
  // a child sim [40, 50).  A second op [200, 210) has no children.
  const std::vector<Span> spans = {
      {"op", 0, 100, -1, 0},       {"core.build", 10, 30, 0, 0},
      {"runtime.mcast", 25, 70, 0, 0}, {"obs.export", 90, 120, 0, 0},
      {"sim", 40, 50, 2, 0},       {"op", 200, 210, -1, 1},
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  // op: children cover [10, 70) and [90, 100) = 70 -> self 30.
  expect(self[0] == 30, "op self time is duration minus the union of its children");
  expect(self[1] == 20, "leaf self time is its duration");
  expect(self[2] == 35, "runtime.mcast self time excludes its child sim");
  expect(self[3] == 30, "a leaf sticking out of its parent keeps its own duration");
  expect(self[4] == 10, "nested leaf");
  expect(self[5] == 10, "childless op");

  perfbench::SpanLog log;
  const int op = log.open("op", -1, 7);
  const int child = log.open("core.build", op, 7);
  log.close(child);
  log.close(op);
  const auto& s = log.spans();
  expect(s.size() == 2 && s[1].parent == op && s[1].op == 7, "open/close records parents");
  expect(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns,
         "a child closed first nests inside its parent");

  std::ostringstream os;
  perfbench::write_chrome_spans(os, spans);
  const std::string json = os.str();
  expect(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0) == 0,
         "Chrome trace JSON header");
  expect(json.find("\"name\":\"runtime.mcast\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":0.025,\"dur\":0.045") != std::string::npos,
         "complete events carry microsecond ts/dur");
  if (failures == 0) std::cout << "spans_test: ok\n";
  return failures == 0 ? 0 : 1;
}

#include "spans.h"

#include <stdexcept>
#include <vector>

#include "obs/json.h"

namespace misbench {

SpanTotals SumSpans(const rpmis::obs::TraceSink& sink) {
  if (sink.DroppedEvents() != 0) throw std::runtime_error("trace dropped events");
  rpmis::obs::JsonValue doc;
  std::string error;
  if (!rpmis::obs::ParseJson(sink.ToJson(), &doc, &error)) {
    throw std::runtime_error("trace JSON: " + error);
  }
  const rpmis::obs::JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->IsArray()) {
    throw std::runtime_error("trace JSON has no traceEvents");
  }
  struct Open {
    std::string name;
    double begin_us;
    double child_us;
  };
  std::map<double, std::vector<Open>> stacks;  // per tid
  SpanTotals totals;
  for (const rpmis::obs::JsonValue& e : events->array) {
    const std::string& ph = e.Find("ph")->string_value;
    const double tid = e.Find("tid")->number_value;
    const double ts = e.Find("ts")->number_value;
    std::vector<Open>& stack = stacks[tid];
    if (ph == "B") {
      stack.push_back({e.Find("name")->string_value, ts, 0.0});
    } else if (ph == "E") {
      if (stack.empty()) throw std::runtime_error("trace span end without begin");
      const Open open = stack.back();
      stack.pop_back();
      const double dur = ts - open.begin_us;
      totals.inclusive[open.name] += dur * 1e-6;
      totals.self[open.name] += (dur - open.child_us) * 1e-6;
      if (!stack.empty()) stack.back().child_us += dur;
    }
  }
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) throw std::runtime_error("trace span left open");
  }
  return totals;
}

}  // namespace misbench

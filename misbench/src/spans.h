// Span totals from the program's own trace sink: the per-layer times of
// the traced run come from the spans the solvers already emit.
#ifndef MISBENCH_SPANS_H_
#define MISBENCH_SPANS_H_

#include <map>
#include <string>

#include "obs/trace.h"

namespace misbench {

struct SpanTotals {
  /// Summed duration per span name, seconds.
  std::map<std::string, double> inclusive;
  /// Summed duration minus the time covered by direct child spans on the
  /// same thread, seconds.
  std::map<std::string, double> self;

  double Inclusive(const std::string& name) const {
    const auto it = inclusive.find(name);
    return it == inclusive.end() ? 0.0 : it->second;
  }
  double Self(const std::string& name) const {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  }
};

/// Parses the sink's Chrome trace JSON and sums its B/E spans. Throws
/// std::runtime_error when the document does not parse, a span is left
/// unbalanced, or the sink dropped events.
SpanTotals SumSpans(const rpmis::obs::TraceSink& sink);

}  // namespace misbench

#endif  // MISBENCH_SPANS_H_

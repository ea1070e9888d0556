#include "mis/kernel_capture.h"

namespace rpmis::internal {

void BuildKernelSnapshot(const std::vector<uint8_t>& in_kernel,
                         const std::vector<uint8_t>& in_set,
                         const std::vector<Edge>& edges,
                         std::span<const DeferredDecision> deferred, KernelSnapshot* out) {
  const Vertex n = static_cast<Vertex>(in_kernel.size());
  out->captured = true;
  out->orig_to_kernel.assign(n, kInvalidVertex);
  out->kernel_to_orig.clear();
  out->included.clear();
  out->deferred_stack.assign(deferred.begin(), deferred.end());
  for (Vertex v = 0; v < n; ++v) {
    if (in_set[v]) out->included.push_back(v);
    if (in_kernel[v]) {
      out->orig_to_kernel[v] = static_cast<Vertex>(out->kernel_to_orig.size());
      out->kernel_to_orig.push_back(v);
    }
  }
  std::vector<Edge> kernel_edges;
  kernel_edges.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    RPMIS_ASSERT(out->orig_to_kernel[u] != kInvalidVertex &&
                 out->orig_to_kernel[v] != kInvalidVertex);
    kernel_edges.emplace_back(out->orig_to_kernel[u], out->orig_to_kernel[v]);
  }
  out->kernel = Graph::FromEdges(static_cast<Vertex>(out->kernel_to_orig.size()),
                                 kernel_edges);
}

}  // namespace rpmis::internal

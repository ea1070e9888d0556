#include "mis/io_efficient.h"

#include <cstdio>
#include <stdexcept>

namespace rpmis {

InMemoryEdgeStream::InMemoryEdgeStream(const Graph& g)
    : edges_(g.CollectEdges()) {}

bool InMemoryEdgeStream::Next(Edge* edge) {
  if (cursor_ >= edges_.size()) return false;
  *edge = edges_[cursor_++];
  return true;
}

struct FileEdgeStream::Impl {
  FILE* file = nullptr;
};

FileEdgeStream::FileEdgeStream(const std::string& path) : impl_(new Impl) {
  impl_->file = std::fopen(path.c_str(), "rb");
  if (impl_->file == nullptr) {
    delete impl_;
    throw std::runtime_error("rpmis::FileEdgeStream: cannot open " + path);
  }
}

FileEdgeStream::~FileEdgeStream() {
  if (impl_->file != nullptr) std::fclose(impl_->file);
  delete impl_;
}

void FileEdgeStream::Rewind() { std::rewind(impl_->file); }

bool FileEdgeStream::Next(Edge* edge) {
  Vertex pair[2];
  if (std::fread(pair, sizeof(Vertex), 2, impl_->file) != 2) return false;
  edge->first = pair[0];
  edge->second = pair[1];
  return true;
}

void WriteEdgeStreamFile(const Graph& g, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("rpmis::WriteEdgeStreamFile: cannot open " + path);
  }
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (Vertex w : g.Neighbors(v)) {
      if (v < w) {
        const Vertex pair[2] = {v, w};
        std::fwrite(pair, sizeof(Vertex), 2, f);
      }
    }
  }
  std::fclose(f);
}

namespace {

enum class Status : uint8_t {
  kAlive = 0,
  kDeleted = 1,  // excluded (neighbour of a taken vertex, or peeled)
  kInSet = 2,
};

}  // namespace

IoEfficientResult RunIoEfficientBDOne(Vertex n, EdgeStream& stream) {
  IoEfficientResult out;
  MisSolution& sol = out.solution;
  sol.in_set.assign(n, 0);

  std::vector<Status> status(n, Status::kAlive);
  std::vector<uint8_t> peeled(n, 0);
  std::vector<uint32_t> deg(n);
  std::vector<Vertex> any_neighbor(n);

  // ---- Phase 1: streaming Reducing-Peeling with the degree-one rule ----
  while (true) {
    // One pass: recompute alive degrees and one alive neighbour each.
    std::fill(deg.begin(), deg.end(), 0);
    std::fill(any_neighbor.begin(), any_neighbor.end(), kInvalidVertex);
    uint64_t alive_edges = 0;
    stream.Rewind();
    Edge e;
    while (stream.Next(&e)) {
      const auto [u, v] = e;
      if (status[u] != Status::kAlive || status[v] != Status::kAlive) continue;
      if (u == v) continue;
      ++deg[u];
      ++deg[v];
      any_neighbor[u] = v;
      any_neighbor[v] = u;
      ++alive_edges;
    }
    ++out.reduction_passes;

    // Isolated alive vertices join I.
    for (Vertex v = 0; v < n; ++v) {
      if (status[v] == Status::kAlive && deg[v] == 0) {
        status[v] = Status::kInSet;
        sol.in_set[v] = 1;
        ++sol.rules.degree_zero;
      }
    }
    if (alive_edges == 0) break;

    // Degree-one reductions: delete the unique neighbour of each pendant.
    // If two pendants point at each other (an isolated edge), the first
    // one processed deletes the other; the later entry is stale and skips.
    bool fired = false;
    for (Vertex v = 0; v < n; ++v) {
      if (status[v] != Status::kAlive || deg[v] != 1) continue;
      const Vertex nb = any_neighbor[v];
      if (status[nb] != Status::kAlive) continue;  // stale (cascade)
      status[nb] = Status::kDeleted;
      ++sol.rules.degree_one;
      fired = true;
    }
    if (fired) continue;

    // Inexact reduction: peel the maximum-degree alive vertex.
    Vertex top = kInvalidVertex;
    for (Vertex v = 0; v < n; ++v) {
      if (status[v] != Status::kAlive) continue;
      if (top == kInvalidVertex || deg[v] > deg[top]) top = v;
    }
    RPMIS_DASSERT(top != kInvalidVertex);
    status[top] = Status::kDeleted;
    peeled[top] = 1;
    ++sol.rules.peels;
  }

  // ---- Phase 2: streaming maximality extension (Luby-style) ----------
  // candidate = not in I and no I-neighbour; a candidate joins unless a
  // smaller-id candidate neighbour exists. Deterministic and conflict
  // free; repeats until no candidate remains.
  std::vector<uint8_t> blocked(n);   // has an I-neighbour
  std::vector<uint8_t> deferred(n);  // lost to a smaller-id candidate
  while (true) {
    std::fill(blocked.begin(), blocked.end(), 0);
    std::fill(deferred.begin(), deferred.end(), 0);
    stream.Rewind();
    Edge e;
    while (stream.Next(&e)) {
      const auto [u, v] = e;
      if (u == v) continue;
      if (sol.in_set[u]) blocked[v] = 1;
      if (sol.in_set[v]) blocked[u] = 1;
    }
    // Second pass: candidate-vs-candidate conflicts.
    stream.Rewind();
    while (stream.Next(&e)) {
      const auto [u, v] = e;
      if (u == v) continue;
      if (sol.in_set[u] || sol.in_set[v] || blocked[u] || blocked[v]) continue;
      // Both are candidates: the larger id defers this round.
      deferred[u > v ? u : v] = 1;
    }
    ++out.extension_passes;
    bool added = false;
    for (Vertex v = 0; v < n; ++v) {
      if (!sol.in_set[v] && !blocked[v] && !deferred[v]) {
        sol.in_set[v] = 1;
        added = true;
      }
    }
    if (!added) break;
  }

  CertifySolution(peeled, &sol);
  return out;
}

}  // namespace rpmis

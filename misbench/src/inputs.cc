#include "inputs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include <unistd.h>

namespace misbench {
namespace {

// Owns a FILE* opened for writing; Close() reports the final flush.
class OutFile {
 public:
  explicit OutFile(const std::string& path) : f_(std::fopen(path.c_str(), "wb")) {
    if (f_ == nullptr) throw std::runtime_error("cannot write " + path);
  }
  ~OutFile() {
    if (f_ != nullptr) std::fclose(f_);
  }
  OutFile(const OutFile&) = delete;
  OutFile& operator=(const OutFile&) = delete;

  void Write(const std::string& chunk) {
    if (std::fwrite(chunk.data(), 1, chunk.size(), f_) != chunk.size()) {
      throw std::runtime_error("short write");
    }
  }
  // Flushes to disk before closing, so that timed loads never race the
  // writeback of the file they read.
  void Close() {
    const bool synced = std::fflush(f_) == 0 && fsync(fileno(f_)) == 0;
    const int rc = std::fclose(f_);
    f_ = nullptr;
    if (!synced || rc != 0) throw std::runtime_error("flush or close failed");
  }

 private:
  FILE* f_;
};

void AppendUint(uint64_t x, std::string* out) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  out->append(buf, res.ptr);
}

}  // namespace

std::vector<Edge> ChungLuEdges(Vertex n, double beta, double avg_degree,
                               uint64_t seed) {
  const double gamma = 1.0 / (beta - 1.0);
  std::vector<double> w(n);
  double sum = 0.0;
  for (Vertex i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i) + 10.0, -gamma);
    sum += w[i];
  }
  const double scale = avg_degree * static_cast<double>(n) / sum;
  double total = 0.0;
  for (double& x : w) {
    x *= scale;
    total += x;
  }
  const double cap = std::sqrt(total);
  for (double& x : w) x = std::min(x, cap);

  // Row i holds the pairs (i, j > i). Weights decrease along a row, so
  // skip geometrically at the row's current probability and thin by the
  // ratio of the true probability to it.
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(avg_degree * n / 2 * 1.05));
  for (Vertex i = 0; i + 1 < n; ++i) {
    Vertex j = i + 1;
    double p = std::min(1.0, w[i] * w[j] / total);
    while (j < n && p > 0.0) {
      if (p < 1.0) {
        const double skip = std::floor(std::log1p(-rng.Unit()) / std::log1p(-p));
        if (skip >= static_cast<double>(n - j)) break;
        j += static_cast<Vertex>(skip);
      }
      const double q = std::min(1.0, w[i] * w[j] / total);
      if (rng.Unit() < q / p) edges.emplace_back(i, j);
      p = q;
      ++j;
    }
  }
  return edges;
}

std::vector<Edge> GnmEdges(Vertex n, uint64_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(m);
  // Draw the missing count, drop repeats, repeat until exactly m remain:
  // rejection sampling of distinct pairs, done in batches.
  while (keys.size() < m) {
    for (uint64_t need = m - keys.size(); need > 0;) {
      const Vertex a = static_cast<Vertex>(rng.Below(n));
      const Vertex b = static_cast<Vertex>(rng.Below(n));
      if (a == b) continue;
      keys.push_back((static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b));
      --need;
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  std::vector<Edge> edges(m);
  for (size_t i = 0; i < m; ++i) {
    edges[i] = {static_cast<Vertex>(keys[i] >> 32), static_cast<Vertex>(keys[i])};
  }
  return edges;
}

EdgeListFile WriteEdgeListFile(Vertex n, const std::vector<Edge>& edges,
                               uint64_t seed, const std::string& path) {
  std::vector<Vertex> perm(n);
  for (Vertex i = 0; i < n; ++i) perm[i] = i;
  Rng rng(seed);
  for (Vertex i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  std::vector<Edge> lines(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    const Vertex a = perm[edges[i].first];
    const Vertex b = perm[edges[i].second];
    lines[i] = {std::min(a, b), std::max(a, b)};
  }
  std::sort(lines.begin(), lines.end());

  EdgeListFile out;
  std::vector<Vertex> loaded_id(n, rpmis::kInvalidVertex);
  const auto intern = [&](Vertex x) {
    if (loaded_id[x] == rpmis::kInvalidVertex) loaded_id[x] = out.n++;
    return loaded_id[x];
  };
  out.edges.reserve(lines.size());
  OutFile file(path);
  std::string chunk = "# misbench edge list\n";
  for (const auto& [a, b] : lines) {
    const Vertex la = intern(a);
    const Vertex lb = intern(b);
    out.edges.emplace_back(la, lb);
    AppendUint(a, &chunk);
    chunk.push_back(' ');
    AppendUint(b, &chunk);
    chunk.push_back('\n');
    if (chunk.size() > (1u << 20)) {
      file.Write(chunk);
      chunk.clear();
    }
  }
  file.Write(chunk);
  file.Close();
  return out;
}

Mirror::Mirror(Vertex n, const std::vector<Edge>& edges)
    : adj_(n), alive_(n, 1), num_alive_(n) {
  index_.reserve(edges.size() * 2);
  for (const auto& [a, b] : edges) AddEdge(a, b);
}

Vertex Mirror::RandomAlive(Rng& rng) const {
  while (true) {
    const Vertex v = static_cast<Vertex>(rng.Below(adj_.size()));
    if (alive_[v]) return v;
  }
}

void Mirror::AddEdge(Vertex a, Vertex b) {
  index_.emplace(Key(a, b), edges_.size());
  edges_.emplace_back(a, b);
  adj_[a].push_back(b);
  adj_[b].push_back(a);
}

void Mirror::RemoveEdge(Vertex a, Vertex b) {
  const auto it = index_.find(Key(a, b));
  const size_t slot = it->second;
  index_.erase(it);
  if (slot + 1 != edges_.size()) {
    edges_[slot] = edges_.back();
    index_[Key(edges_[slot].first, edges_[slot].second)] = slot;
  }
  edges_.pop_back();
  const auto drop = [](std::vector<Vertex>& list, Vertex x) {
    *std::find(list.begin(), list.end(), x) = list.back();
    list.pop_back();
  };
  drop(adj_[a], b);
  drop(adj_[b], a);
}

void Mirror::RemoveVertex(Vertex v) {
  while (!adj_[v].empty()) RemoveEdge(v, adj_[v].back());
  alive_[v] = 0;
  --num_alive_;
}

std::vector<Update> Mirror::Generate(size_t count, const StreamMix& mix, Rng& rng) {
  const double total =
      mix.insert_edge + mix.delete_edge + mix.insert_vertex + mix.delete_vertex;
  std::vector<Update> out;
  out.reserve(count);
  while (out.size() < count) {
    double r = rng.Unit() * total;
    Update up;
    if ((r -= mix.insert_edge) < 0.0) {
      if (num_alive_ < 2) continue;
      const Vertex a = RandomAlive(rng);
      const Vertex b = RandomAlive(rng);
      if (a == b || HasEdge(a, b)) continue;
      AddEdge(a, b);
      up = {'a', a, b, {}};
    } else if ((r -= mix.delete_edge) < 0.0) {
      if (edges_.empty()) continue;
      const auto [a, b] = edges_[rng.Below(edges_.size())];
      RemoveEdge(a, b);
      up = {'d', a, b, {}};
    } else if ((r -= mix.insert_vertex) < 0.0) {
      if (num_alive_ == 0) continue;
      const uint32_t k = static_cast<uint32_t>(rng.Below(mix.max_new_vertex_degree + 1));
      std::vector<Vertex> nbs;
      for (uint32_t i = 0; i < k; ++i) {
        const Vertex w = RandomAlive(rng);
        if (std::find(nbs.begin(), nbs.end(), w) == nbs.end()) nbs.push_back(w);
      }
      const Vertex id = NumVertices();
      adj_.emplace_back();
      alive_.push_back(1);
      ++num_alive_;
      for (Vertex w : nbs) AddEdge(id, w);
      up = {'v', id, 0, std::move(nbs)};
    } else {
      if (num_alive_ < 2) continue;
      const Vertex v = RandomAlive(rng);
      RemoveVertex(v);
      up = {'x', v, 0, {}};
    }
    out.push_back(std::move(up));
  }
  return out;
}

void WriteUpdateFile(const std::vector<Update>& updates, const std::string& path) {
  OutFile file(path);
  std::string text = "# misbench update stream\n";
  for (const Update& up : updates) {
    switch (up.kind) {
      case 'a':
      case 'd':
        text += up.kind == 'a' ? "ae " : "de ";
        AppendUint(up.u, &text);
        text.push_back(' ');
        AppendUint(up.v, &text);
        break;
      case 'v':
        text += "av";
        for (Vertex w : up.neighbors) {
          text.push_back(' ');
          AppendUint(w, &text);
        }
        break;
      default:
        text += "dv ";
        AppendUint(up.u, &text);
        break;
    }
    text.push_back('\n');
  }
  file.Write(text);
  file.Close();
}

}  // namespace misbench

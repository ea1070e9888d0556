// Ingest micro-benchmark: throughput (MB/s and edges/s) of every graph
// reader, the legacy-vs-fast edge-list parser ratio, the binary sidecar
// cache, and the serial-vs-parallel CSR build.
//
// The paper's premise is linear-time MIS on graphs with billions of
// edges; this bench verifies that loading a Table-2-scale dataset no
// longer dwarfs the solve time. Default scale is a 10M-edge power-law-ish
// G(n, m) graph (--fast: 1M edges). Thread count for the parallel stages
// follows RPMIS_THREADS. Exits 1 if the serial and parallel CSRs differ or
// the fast edge-list parser is less than 5x faster than the legacy one.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchkit/table.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "support/parallel.h"
#include "support/timer.h"

namespace rpmis::bench {
namespace {

namespace fs = std::filesystem;

struct Throughput {
  double seconds = 0.0;
  uint64_t bytes = 0;
  uint64_t edges = 0;
};

double MbPerSec(const Throughput& t) {
  return t.seconds > 0 ? static_cast<double>(t.bytes) / 1e6 / t.seconds : 0.0;
}
double MEdgesPerSec(const Throughput& t) {
  return t.seconds > 0 ? static_cast<double>(t.edges) / 1e6 / t.seconds : 0.0;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

/// Best-of-`reps` wall time for one full read of `path` via `read`.
Throughput Measure(const std::string& path, int reps,
                   const std::function<Graph(const std::string&)>& read) {
  Throughput best;
  best.bytes = fs::file_size(path);
  for (int r = 0; r < reps; ++r) {
    Timer t;
    Graph g = read(path);
    const double s = t.Seconds();
    if (r == 0 || s < best.seconds) best.seconds = s;
    best.edges = g.NumEdges();
  }
  return best;
}

bool SameCsr(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (Vertex v = 0; v < a.NumVertices(); ++v) {
    if (a.EdgeBegin(v) != b.EdgeBegin(v)) return false;
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

}  // namespace
}  // namespace rpmis::bench

int main(int argc, char** argv) {
  using namespace rpmis;
  using namespace rpmis::bench;

  const bool fast = HasFlag(argc, argv, "--fast");
  const uint64_t target_edges = fast ? 1'000'000 : 10'000'000;
  const Vertex n = static_cast<Vertex>(target_edges / 5);
  const int reps = fast ? 1 : 2;
  // Constructed before any file I/O so --trace covers the ingest spans.
  ObsSession obs("bench_micro_io", argc, argv);

  PrintHeader("micro: graph ingest throughput",
              "I/O must run at disk/memory speed so solve time dominates "
              "even on Table-2-scale graphs");

  std::printf("generating G(n=%llu, m=%llu) ...\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(target_edges));
  Graph g = ErdosRenyiGnm(n, target_edges, /*seed=*/7);

  const std::string dir =
      (fs::temp_directory_path() / "rpmis_bench_micro_io").string();
  fs::create_directories(dir);
  const std::string el = dir + "/g.txt";
  const std::string dimacs = dir + "/g.dimacs";
  const std::string metis = dir + "/g.graph";
  const std::string binary = dir + "/g.rpmi";

  std::printf("writing %llu edges in 4 formats ...\n",
              static_cast<unsigned long long>(g.NumEdges()));
  WriteEdgeListFile(g, el);
  {
    std::ofstream out(dimacs);
    WriteDimacs(g, out);
    std::ofstream out2(metis);
    WriteMetis(g, out2);
  }
  WriteBinaryFile(g, binary);

  std::vector<std::pair<std::string, Throughput>> rows;
  rows.emplace_back("edge list (legacy stream)",
                    Measure(el, reps, [](const std::string& p) {
                      std::ifstream in(p);
                      return ReadEdgeList(in);
                    }));
  rows.emplace_back("edge list (fast mmap)", Measure(el, reps, [](const std::string& p) {
                      return ReadEdgeListFile(p);
                    }));
  rows.emplace_back("DIMACS (fast mmap)", Measure(dimacs, reps, [](const std::string& p) {
                      return ReadDimacsFile(p);
                    }));
  rows.emplace_back("METIS (fast mmap)", Measure(metis, reps, [](const std::string& p) {
                      return ReadMetisFile(p);
                    }));
  rows.emplace_back("binary CSR", Measure(binary, reps, [](const std::string& p) {
                      return ReadBinaryFile(p);
                    }));
  // LoadGraphFile twice: the first call parses the text and writes the
  // sidecar cache, the second hits it.
  fs::remove(GraphCachePath(el));
  rows.emplace_back("LoadGraphFile (cold, writes cache)",
                    Measure(el, 1, [](const std::string& p) {
                      return LoadGraphFile(p);
                    }));
  rows.emplace_back("LoadGraphFile (warm cache)",
                    Measure(el, reps, [](const std::string& p) {
                      return LoadGraphFile(p);
                    }));

  TablePrinter table({"reader", "MB", "sec", "MB/s", "Medges/s"});
  for (const auto& [name, t] : rows) {
    // The machine twin of the table row: one record per reader.
    ObsSession::Run run = obs.Start("ingest", name, /*seed=*/7);
    run.NoteSeconds(t.seconds);
    run.record().AddNumber("io.bytes", static_cast<double>(t.bytes));
    run.record().AddNumber("io.edges", static_cast<double>(t.edges));
    run.record().AddNumber("io.mb_per_s", MbPerSec(t));
    run.record().AddNumber("io.medges_per_s", MEdgesPerSec(t));
    table.AddRow({name, Fmt(static_cast<double>(t.bytes) / 1e6),
                  Fmt(t.seconds * 1000) + "ms", Fmt(MbPerSec(t)),
                  Fmt(MEdgesPerSec(t))});
  }
  table.Print(std::cout);

  const double legacy_s = rows[0].second.seconds;
  const double fast_s = rows[1].second.seconds;
  const bool speedup_ok = legacy_s / fast_s >= 5.0;
  std::printf("\nedge-list speedup (legacy / fast): %.2fx %s\n",
              legacy_s / fast_s, speedup_ok ? "(>= 5x: PASS)" : "(< 5x: FAIL)");

  // CSR build: serial vs parallel on the same edge multiset, and the
  // determinism contract (byte-identical CSR regardless of thread count).
  std::vector<Edge> edges = g.CollectEdges();
  Timer ts;
  Graph serial = Graph::FromEdgesSerial(g.NumVertices(), edges);
  const double serial_s = ts.Seconds();
  ts.Restart();
  Graph parallel = Graph::FromEdgesParallel(g.NumVertices(), edges);
  const double parallel_s = ts.Seconds();
  const bool csr_ok = SameCsr(serial, parallel);
  std::printf(
      "\nFromEdges (%llu edges): serial %.0fms, parallel %.0fms "
      "(%zu threads), CSR identical: %s\n",
      static_cast<unsigned long long>(edges.size()), serial_s * 1000,
      parallel_s * 1000, NumThreads(), csr_ok ? "yes" : "NO (BUG)");

  fs::remove_all(dir);
  if (!csr_ok) std::fprintf(stderr, "FAIL: serial and parallel CSRs differ\n");
  if (!speedup_ok) {
    std::fprintf(stderr, "FAIL: legacy/fast edge-list speedup is below 5x\n");
  }
  return csr_ok && speedup_ok ? 0 : 1;
}

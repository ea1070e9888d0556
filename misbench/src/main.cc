// misbench: the file-to-MIS benchmark.
//
//   misbench --workload NAME --seed N --seconds T --trace 0|1 --work DIR
//
// Generates the workload's graph from the seed, writes it as an edge-list
// file (and an update stream file) under DIR, loads it with LoadGraphFile,
// solves it with BDOne, BDTwo, LinearTime and NearLinear, maintains a set
// through the update stream with DynamicMisEngine, checks every output
// with the benchmark's own code, and prints one JSON object as the last
// line of stdout. With --trace 0 it reports the end-to-end metrics, with
// --trace 1 the per-layer ones (README.md lists both).
//
// A run sets up (input generation, then several timed loads), then repeats
// whole rounds of the same operations for T seconds; see Tally for how
// the samples of a metric become its value.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchkit/run.h"
#include "benchkit/stats.h"
#include "checks.h"
#include "dynamic/engine.h"
#include "dynamic/update.h"
#include "graph/algorithms.h"
#include "graph/io.h"
#include "inputs.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"
#include "mis/verify.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "spans.h"
#include "support/timer.h"

namespace misbench {
namespace {

using rpmis::Graph;
using rpmis::MisSolution;
using rpmis::Timer;

struct Workload {
  const char* name;
  bool gnm;           // G(n,m) when true, Chung–Lu otherwise
  Vertex n;
  double beta;        // Chung–Lu exponent
  double avg_degree;  // Chung–Lu target average degree
  uint64_t m;         // G(n,m) edge count
  bool all_threads;   // RPMIS_THREADS = online CPUs, else 1
  size_t updates;     // update stream length
};

// Each stream length sits midway between the engine's 3rd and 4th full
// re-solve on every probed seed, so updates_per_s never gains or loses a
// whole re-solve between seeds. gnm-d3 is runnable by hand; BENCHMARK.json
// leaves it out because its run budget holds two 45-s workloads.
constexpr Workload kWorkloads[] = {
    {"plaw-2.1", false, 400'000, 2.1, 12.0, 0, true, 6350},
    {"plaw-3.5", false, 120'000, 3.5, 20.0, 0, false, 3300},
    {"gnm-d3", true, 600'000, 0.0, 0.0, 900'000, false, 8900},
};

// Loads per run; setup_s is their median (see Main).
constexpr int kSetupLoads = 7;

struct Solver {
  const char* name;
  std::function<MisSolution(const Graph&)> run;
};

const std::vector<Solver>& Solvers() {
  static const std::vector<Solver> solvers = {
      {"bdone", [](const Graph& g) { return rpmis::RunBDOne(g); }},
      {"bdtwo", [](const Graph& g) { return rpmis::RunBDTwo(g); }},
      {"lineartime", [](const Graph& g) { return rpmis::RunLinearTime(g); }},
      {"nearlinear", [](const Graph& g) { return rpmis::RunNearLinear(g); }},
  };
  return solvers;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + stream);
  return rng.Next();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

// q-quantile by nearest rank.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

int OnlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

// Per-round samples of every reported metric, and the op tally. A metric
// reports the best of its samples when it is a time (the least "s"/"us",
// the most "1/s"): noise from other tenants only ever slows a call down.
// Counts, sizes, memory and ratios report the median.
class Tally {
 public:
  void Sample(const std::string& name, const char* unit, double value) {
    auto& m = metrics_[name];
    m.unit = unit;
    m.values.push_back(value);
  }
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "misbench: check failed: " << what << "\n";
    }
  }

  double Value(const std::string& name) const {
    const Metric& m = metrics_.at(name);
    const std::string unit = m.unit;
    if (unit == "s" || unit == "us") {
      return *std::min_element(m.values.begin(), m.values.end());
    }
    if (unit == "1/s") {
      return *std::max_element(m.values.begin(), m.values.end());
    }
    return Median(m.values);
  }

  // The result line.
  std::string Json() const {
    std::ostringstream out;
    out.precision(10);
    out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << Value(name)
          << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    out << "}}";
    return out.str();
  }
  void Print(std::ostream& os) const {
    for (const auto& [name, m] : metrics_) {
      const auto [lo, hi] = std::minmax_element(m.values.begin(), m.values.end());
      char line[200];
      std::snprintf(line, sizeof(line), "  %-34s %14.6g %-9s (%zu samples, %.6g .. %.6g)\n",
                    name.c_str(), Value(name), m.unit, m.values.size(), *lo, *hi);
      os << line;
    }
  }

 private:
  struct Metric {
    const char* unit = "";
    std::vector<double> values;
  };
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Everything a run works on, made from the seed before timing starts.
struct Inputs {
  std::string graph_path;
  std::string stream_path;
  EdgeListFile file;                 // loaded-id edges, what the loader must give
  Csr csr;                           // the benchmark's own CSR of it
  uint64_t matching_bound = 0;       // n - |M|
  std::vector<Update> updates;
  Csr final_csr;                     // the mirror after the stream
  std::vector<uint8_t> final_alive;
};

Inputs MakeInputs(const Workload& w, uint64_t seed, const std::string& dir) {
  Inputs in;
  const std::string stem = dir + "/" + w.name + "-" + std::to_string(seed);
  in.graph_path = stem + ".txt";
  in.stream_path = stem + ".updates";
  const std::vector<Edge> edges =
      w.gnm ? GnmEdges(w.n, w.m, MixSeed(seed, 1))
            : ChungLuEdges(w.n, w.beta, w.avg_degree, MixSeed(seed, 1));
  in.file = WriteEdgeListFile(w.n, edges, MixSeed(seed, 2), in.graph_path);
  in.csr = BuildCsr(in.file.n, in.file.edges);
  in.matching_bound = MatchingBound(in.csr);

  Mirror mirror(in.file.n, in.file.edges);
  Rng rng(MixSeed(seed, 3));
  in.updates = mirror.Generate(w.updates, StreamMix{}, rng);
  WriteUpdateFile(in.updates, in.stream_path);
  in.final_csr = BuildCsr(mirror.NumVertices(), mirror.Edges());
  in.final_alive = mirror.AliveFlags();
  return in;
}

bool SameStream(const std::vector<Update>& want,
                const std::vector<rpmis::GraphUpdate>& got) {
  using rpmis::UpdateKind;
  if (want.size() != got.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    const Update& a = want[i];
    const rpmis::GraphUpdate& b = got[i];
    switch (a.kind) {
      case 'a':
      case 'd':
        if (b.kind != (a.kind == 'a' ? UpdateKind::kInsertEdge : UpdateKind::kDeleteEdge) ||
            b.u != a.u || b.v != a.v) {
          return false;
        }
        break;
      case 'v':
        if (b.kind != UpdateKind::kInsertVertex || b.neighbors != a.neighbors) return false;
        break;
      default:
        if (b.kind != UpdateKind::kDeleteVertex || b.u != a.u) return false;
        break;
    }
  }
  return true;
}

struct SolveResult {
  bool ok = false;
  uint64_t size = 0;
  uint64_t upper = 0;
  bool provable = false;
  uint64_t set_check = 0;  // SetCheck bits
};

// The solvers' cross checks for one round: no size above any solver's
// Theorem 6.1 bound or the matching bound, and a provably maximum set at
// least as large as every other. Returns one failure text per solver
// ("" when it passed).

std::vector<std::string> CrossCheck(const std::vector<SolveResult>& r,
                                    uint64_t matching_bound) {
  std::vector<std::string> why(r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    if (!r[i].ok) {
      why[i] = "solve did not complete";
      continue;
    }
    if (r[i].set_check != 0) {
      why[i] = "set check bits " + std::to_string(r[i].set_check);
      continue;
    }
    if (r[i].size > matching_bound) why[i] = "size above n - |M|";
    for (size_t j = 0; j < r.size(); ++j) {
      if (!r[j].ok) continue;
      if (r[i].size > r[j].upper) {
        why[i] = std::string("size above the bound of ") + Solvers()[j].name;
      }
      if (r[i].provable && r[j].size > r[i].size) {
        why[i] = std::string("provably maximum but smaller than ") + Solvers()[j].name;
      }
    }
  }
  return why;
}

// One pass of the update stream on a fresh engine.
struct StreamRun {
  double build_s = 0.0;
  std::vector<double> latency;    // per update, seconds
  double resolve_s = 0.0;         // updates that ended in a full re-solve
  std::vector<double> repaired;   // latencies of locally repaired updates
  uint64_t size = 0;
  std::string error;
};

StreamRun RunStream(const Graph& g, const std::vector<rpmis::GraphUpdate>& stream,
                    const Inputs& in, rpmis::obs::MetricsRegistry* metrics) {
  StreamRun run;
  Timer build;
  rpmis::DynamicMisEngine engine(g);
  run.build_s = build.Seconds();
  run.latency.reserve(stream.size());
  try {
    for (const rpmis::GraphUpdate& up : stream) {
      Timer t;
      const rpmis::UpdateOutcome out = engine.Apply(up);
      const double s = t.Seconds();
      run.latency.push_back(s);
      if (out.full_resolve) {
        run.resolve_s += s;
      } else if (!out.component_fallback) {
        run.repaired.push_back(s);
      }
    }
    run.error = CheckEngine(in.final_csr, in.final_alive, engine);
  } catch (const std::exception& e) {
    run.error = std::string("Apply threw: ") + e.what();
  }
  run.size = engine.Size();
  if (metrics != nullptr) engine.PublishMetrics(*metrics);
  return run;
}

// Solves per round: the linear-time solvers are cheap, so they repeat to
// give their best-of more samples. Index order follows Solvers().
constexpr int kRepeats[] = {3, 1, 3, 1};

// One solve in a forked child: it times the solve alone, then checks the
// set; the payload carries size, bound, check bits and the solve time.
SolveResult SolveInChild(const Solver& solver, const Graph& g, const Inputs& in,
                         double* seconds, double* mb) {
  const rpmis::ChildMeasurement cm = rpmis::MeasureInChild([&](uint64_t p[4]) {
    Timer t;
    const MisSolution sol = solver.run(g);
    const double s = t.Seconds();
    p[0] = sol.size;
    p[1] = sol.UpperBound();
    p[2] = (sol.provably_maximum ? 1 : 0) | (CheckSet(in.csr, sol.in_set, sol.size) << 1);
    std::memcpy(&p[3], &s, sizeof(s));
  });
  if (cm.ok && !cm.rss_available) {
    throw std::runtime_error("peak RSS (VmHWM) is unreadable on this host");
  }
  std::memcpy(seconds, &cm.payload[3], sizeof(double));
  *mb = static_cast<double>(cm.peak_rss_delta_kb) / 1024.0;
  return {cm.ok, cm.payload[0], cm.payload[1], (cm.payload[2] & 1) != 0, cm.payload[2] >> 1};
}

// --trace 0: the end-to-end metrics.
void EndToEndRound(const Graph& g, const std::vector<rpmis::GraphUpdate>& stream,
                   const Inputs& in, Tally& tally) {
  const auto& solvers = Solvers();
  std::vector<SolveResult> first(solvers.size());
  for (int rep = 0; rep < *std::max_element(std::begin(kRepeats), std::end(kRepeats)); ++rep) {
    for (size_t i = 0; i < solvers.size(); ++i) {
      if (rep >= kRepeats[i]) continue;
      const std::string name = solvers[i].name;
      double seconds = 0.0;
      double mb = 0.0;
      const SolveResult r = SolveInChild(solvers[i], g, in, &seconds, &mb);
      if (rep == 0) first[i] = r;
      tally.Op(r.ok && r.set_check == 0 && r.size == first[i].size,
               name + ": failed, bad set, or size differs between repeats");
      if (!r.ok) continue;
      tally.Sample(name + "_s", "s", seconds);
      tally.Sample(name + "_mb", "MB", mb);
      if (rep == 0) tally.Sample(name + ".size", "vertices", static_cast<double>(r.size));
    }
  }
  const std::vector<std::string> why = CrossCheck(first, in.matching_bound);
  for (size_t i = 0; i < solvers.size(); ++i) {
    tally.Op(why[i].empty(), std::string(solvers[i].name) + ": " + why[i]);
  }

  // The stream runs in a child too, so the parent's heap looks the same
  // before every round's solves and their memory figures repeat.
  const rpmis::ChildMeasurement cm = rpmis::MeasureInChild([&](uint64_t p[4]) {
    const StreamRun run = RunStream(g, stream, in, nullptr);
    double total = 0.0;
    for (double s : run.latency) total += s;
    const double p50 = Median(run.latency);
    std::memcpy(&p[0], &total, sizeof(total));
    std::memcpy(&p[1], &p50, sizeof(p50));
    p[2] = run.size;
    p[3] = run.error.empty() ? 1 : 0;
    if (!run.error.empty()) std::cerr << "misbench: dynamic: " << run.error << "\n";
  });
  tally.Op(cm.ok && cm.payload[3] == 1, "dynamic: stream failed or final set is wrong");
  if (!cm.ok) return;
  double total = 0.0;
  double p50 = 0.0;
  std::memcpy(&total, &cm.payload[0], sizeof(total));
  std::memcpy(&p50, &cm.payload[1], sizeof(p50));
  tally.Sample("updates_per_s", "1/s", static_cast<double>(stream.size()) / total);
  tally.Sample("update_p50_us", "us", p50 * 1e6);
  tally.Sample("dynamic.size", "vertices", static_cast<double>(cm.payload[2]));
}

// --trace 1: the per-layer metrics.
void PerLayerRound(const Graph& g, const std::string& text,
                   const std::vector<rpmis::GraphUpdate>& stream, const Inputs& in,
                   Tally& tally) {
  {
    Timer t;
    const Graph parsed = rpmis::ParseEdgeList(text);
    tally.Sample("ingest.parse_s", "s", t.Seconds());
    tally.Op(SameGraph(in.csr, parsed), "ParseEdgeList graph differs");
  }
  {
    Timer t;
    const Graph built = Graph::FromEdges(in.file.n, in.file.edges);
    tally.Sample("ingest.csr_s", "s", t.Seconds());
    tally.Op(SameGraph(in.csr, built), "Graph::FromEdges graph differs");
  }

  const auto& solvers = Solvers();
  std::vector<SolveResult> results(solvers.size());
  MisSolution nearlinear;
  std::vector<uint8_t> untraced_nearlinear;
  for (size_t i = 0; i < solvers.size(); ++i) {
    const std::string name = solvers[i].name;
    if (name == "nearlinear") {
      // The untraced twin runs right before the traced solve, so both see
      // about the same host; obs.trace_overhead_s compares their bests.
      Timer t;
      const MisSolution plain = rpmis::RunNearLinear(g);
      tally.Sample("nearlinear.plain_s", "s", t.Seconds());
      untraced_nearlinear = plain.in_set;
    }
    rpmis::obs::TraceSink sink;
    rpmis::obs::MetricsRegistry reg;
    MisSolution sol;
    {
      rpmis::obs::ScopedObservability scope(&sink, &reg, nullptr);
      sol = solvers[i].run(g);
    }
    rpmis::PublishSolutionMetrics(sol, &reg);
    results[i] = {true, sol.size, sol.UpperBound(), sol.provably_maximum,
                  CheckSet(in.csr, sol.in_set, sol.size)};

    tally.Sample(name + ".peels", "count", static_cast<double>(reg.Counter("rules.peels")));
    tally.Sample(name + ".kernel_n", "vertices", reg.Gauge("kernel.vertices"));
    const double scanned = static_cast<double>(reg.Counter("compaction.slots_scanned"));
    tally.Sample(name + ".compact_kept_ratio", "ratio",
                 scanned == 0.0 ? 0.0
                                : static_cast<double>(reg.Counter("compaction.slots_kept")) /
                                      scanned);
    if (name == "lineartime") {
      tally.Sample("lineartime.rule.degree_two_path", "count",
                   static_cast<double>(reg.Counter("rules.degree_two_path")));
    } else if (name == "bdtwo") {
      tally.Sample("bdtwo.rule.degree_two_folding", "count",
                   static_cast<double>(reg.Counter("rules.degree_two_folding")));
    } else if (name == "nearlinear") {
      const SpanTotals spans = SumSpans(sink);
      const double total = spans.Inclusive("nearlinear");
      const char* children[][2] = {
          {"nearlinear.prepass.dominance", "nearlinear.dominance_s"},
          {"nearlinear.prepass.lp", "nearlinear.lp_s"},
          {"nearlinear.kernel_build", "nearlinear.kernel_build_s"},
          {"nearlinear.core", "nearlinear.core_s"},
          {"nearlinear.finalize", "nearlinear.finalize_s"},
      };
      double covered = 0.0;
      for (const auto& [span, metric] : children) {
        covered += spans.Inclusive(span);
        tally.Sample(metric, "s", spans.Inclusive(span));
      }
      const double untraced = spans.Self("nearlinear");
      tally.Sample("nearlinear.traced_s", "s", total);
      tally.Sample("nearlinear.untraced_s", "s", untraced);
      tally.Sample("nearlinear.span_coverage", "ratio", (covered + untraced) / total);
      tally.Sample("nearlinear.compact_s", "s", spans.Inclusive("nearlinear.compact"));
      tally.Sample("nearlinear.compactions", "count",
                   static_cast<double>(reg.Counter("compaction.rebuilds")));
      tally.Sample("nearlinear.upper_bound", "vertices", reg.Gauge("solution.upper_bound"));
      for (const char* rule : {"dominance", "one_pass_dominance", "lp", "degree_two_path"}) {
        tally.Sample(std::string("nearlinear.rule.") + rule, "count",
                     static_cast<double>(reg.Counter(std::string("rules.") + rule)));
      }
      nearlinear = std::move(sol);
    }
  }
  const std::vector<std::string> why = CrossCheck(results, in.matching_bound);
  for (size_t i = 0; i < solvers.size(); ++i) {
    tally.Op(why[i].empty(), std::string(solvers[i].name) + ": " + why[i]);
  }
  tally.Op(untraced_nearlinear == nearlinear.in_set, "NearLinear differs with tracing on");

  {
    rpmis::KernelSnapshot snap;
    rpmis::RunLinearTime(g, &snap);
    Timer t;
    const std::vector<uint32_t> triangles = rpmis::EdgeTriangleCounts(snap.kernel);
    tally.Sample("graph.triangles_s", "s", t.Seconds());
    tally.Op(triangles.size() == 2 * snap.kernel.NumEdges(), "triangle count length");
  }
  {
    Timer t;
    const bool valid = rpmis::VerifyMis(g, nearlinear.in_set);
    tally.Sample("mis.verify_s", "s", t.Seconds());
    tally.Op(valid, "VerifyMis rejected NearLinear's set");
  }

  rpmis::obs::MetricsRegistry reg;
  const StreamRun run = RunStream(g, stream, in, &reg);
  tally.Op(run.error.empty(), "dynamic: " + run.error);
  tally.Sample("dynamic.build_s", "s", run.build_s);
  tally.Sample("dynamic.resolve_s", "s", run.resolve_s);
  tally.Sample("dynamic.full_resolves", "count",
               static_cast<double>(reg.Counter("dynamic.fallback.full_resolve")));
  tally.Sample("dynamic.fallbacks", "count",
               static_cast<double>(reg.Counter("dynamic.fallback.component")));
  tally.Sample("dynamic.cone_vertices", "count",
               static_cast<double>(reg.Counter("dynamic.cone.vertices")));
  tally.Sample("dynamic.repair_p99_us", "us",
               run.repaired.empty() ? 0.0 : Quantile(run.repaired, 0.99) * 1e6);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--work") {
      a.work = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0.0 ||
      (a.trace != 0 && a.trace != 1) || a.work.empty()) {
    throw std::invalid_argument(
        "usage: misbench --workload NAME --seed N --seconds T --trace 0|1 --work DIR");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const int threads = w->all_threads ? OnlineCpus() : 1;
  setenv("RPMIS_THREADS", std::to_string(threads).c_str(), 1);

  Timer gen;
  const Inputs in = MakeInputs(*w, args.seed, args.work);
  std::cerr << "misbench: " << w->name << " seed " << args.seed << ": n = " << in.file.n
            << ", m = " << in.file.edges.size() << ", " << in.updates.size()
            << " updates, RPMIS_THREADS = " << threads << " (inputs in " << gen.Seconds()
            << " s)\n";

  Tally tally;
  // Setup: load the file with the sidecar cache off, as a cold text load.
  rpmis::LoadOptions load;
  load.format = rpmis::GraphFormat::kEdgeList;
  load.use_cache = false;
  // setup_s is the median of the loads, not their best: it stands for the
  // typical cost of set-up, which a best-of would understate.
  Graph g;
  const int loads = args.trace == 0 ? kSetupLoads : 1;
  std::vector<double> load_s;
  for (int i = 0; i < loads; ++i) {
    g = Graph();
    Timer t;
    g = rpmis::LoadGraphFile(in.graph_path, load);
    load_s.push_back(t.Seconds());
    tally.Op(SameGraph(in.csr, g), "loaded graph differs from the generated one");
  }
  if (args.trace == 0) tally.Sample("setup_s", "s", Median(load_s));
  const std::vector<rpmis::GraphUpdate> stream = rpmis::LoadUpdateStream(in.stream_path);
  tally.Op(SameStream(in.updates, stream), "parsed update stream differs");
  std::string text;
  if (args.trace == 1) {
    std::ifstream f(in.graph_path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }

  // Whole rounds until the time is used; the last round starts only if
  // about half of it fits.
  Timer clock;
  int rounds = 0;
  while (rounds == 0 ||
         clock.Seconds() + 0.5 * clock.Seconds() / rounds < args.seconds) {
    if (args.trace == 0) {
      EndToEndRound(g, stream, in, tally);
    } else {
      PerLayerRound(g, text, stream, in, tally);
    }
    ++rounds;
  }
  std::remove(in.graph_path.c_str());
  std::remove(in.stream_path.c_str());
  if (args.trace == 1) {
    // Best traced NearLinear (span total) against best untraced.
    tally.Sample("obs.trace_overhead_s", "s",
                 tally.Value("nearlinear.traced_s") - tally.Value("nearlinear.plain_s"));
  }

  std::cerr << "misbench: " << rounds << " rounds in " << clock.Seconds() << " s\n";
  tally.Print(std::cerr);
  std::cout << tally.Json() << std::endl;
  return 0;
}

}  // namespace
}  // namespace misbench

int main(int argc, char** argv) {
  try {
    return misbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "misbench: " << e.what() << "\n";
    return 1;
  }
}

// Shared fixtures for the rpmis test suite, including reconstructions of
// the paper's worked-example graphs (Figures 1, 2 and 5). The
// reconstructions are validated against every walkthrough the paper gives
// (BDOne, BDTwo, LinearTime and the NearLinear dominance example) in
// paper_examples_test.cc.
#ifndef RPMIS_TESTS_TEST_UTIL_H_
#define RPMIS_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"

namespace rpmis::testing {

// Paper vertex v_i maps to id i-1 throughout.

/// Figure 1: 10 vertices; α = 4+1; maximum IS {v1,v4,v6,v8,v10};
/// BDOne finds {v1,v5,v7,v10} (size 4), BDTwo/LinearTime find size 5.
inline Graph PaperFigure1() {
  return Graph::FromEdges(
      10, std::vector<Edge>{{0, 1},
                            {0, 2},
                            {1, 2},
                            {1, 3},
                            {2, 3},
                            {3, 4},
                            {4, 5},
                            {4, 7},
                            {5, 6},
                            {6, 7},
                            {8, 9}});
}

/// §1's modified Figure 1: v10 removed, v9 joined to v1,v5,v6,v7,v8.
/// Minimum degree 3 (no degree-1/2 reductions apply), yet v9 is dominated
/// and NearLinear solves the graph exactly.
inline Graph PaperFigure1Modified() {
  return Graph::FromEdges(9, std::vector<Edge>{{0, 1},
                                               {0, 2},
                                               {1, 2},
                                               {1, 3},
                                               {2, 3},
                                               {3, 4},
                                               {4, 5},
                                               {4, 7},
                                               {5, 6},
                                               {6, 7},
                                               {8, 0},
                                               {8, 4},
                                               {8, 5},
                                               {8, 6},
                                               {8, 7}});
}

/// Figure 2: 6 vertices; α = 3 with maximum IS {v1,v3,v4};
/// {v2,v6} is a maximal (non-maximum) IS.
inline Graph PaperFigure2() {
  return Graph::FromEdges(6, std::vector<Edge>{{0, 1},
                                               {1, 2},
                                               {1, 3},
                                               {2, 4},
                                               {2, 5},
                                               {3, 4},
                                               {3, 5},
                                               {4, 5}});
}

/// Figure 5 (LinearTime running example): 10 vertices, α = 4,
/// maximum IS {v1,v3,v6,v10}.
inline Graph PaperFigure5() {
  return Graph::FromEdges(10, std::vector<Edge>{{0, 1},
                                                {1, 2},
                                                {0, 3},
                                                {2, 3},
                                                {3, 4},
                                                {4, 9},
                                                {4, 5},
                                                {5, 6},
                                                {6, 7},
                                                {6, 8},
                                                {7, 8},
                                                {7, 9},
                                                {8, 9}});
}

/// The mixed suite the differential and golden tests sweep: the paper's
/// worked examples plus mid-size random and power-law graphs.
inline std::vector<std::pair<std::string, Graph>> DifferentialGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("fig1", PaperFigure1());
  graphs.emplace_back("fig1mod", PaperFigure1Modified());
  graphs.emplace_back("fig2", PaperFigure2());
  graphs.emplace_back("fig5", PaperFigure5());
  graphs.emplace_back("er-3k", ErdosRenyiGnm(3000, 9000, 7));
  graphs.emplace_back("er-sparse", ErdosRenyiGnm(2000, 2000, 11));
  graphs.emplace_back("powerlaw", ChungLuPowerLaw(5000, 2.5, 6.0, 13));
  graphs.emplace_back("plcore", PowerLawWithCore(4000, 2.5, 6.0, 100, 20.0, 17));
  return graphs;
}

/// Pins RPMIS_THREADS for a scope and restores the previous value.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv("RPMIS_THREADS");
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    setenv("RPMIS_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (had_value_) {
      setenv("RPMIS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("RPMIS_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

}  // namespace rpmis::testing

#endif  // RPMIS_TESTS_TEST_UTIL_H_

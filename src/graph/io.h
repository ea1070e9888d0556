// Graph readers/writers: whitespace edge lists (SNAP style), DIMACS,
// METIS, and a binary CSR snapshot.
//
// The paper's datasets come from SNAP and the Laboratory of Web
// Algorithmics; both distribute plain edge lists, which is the primary
// format here. DIMACS and METIS are provided for interoperability with
// MIS/VC solver ecosystems (KaMIS, VCSolver artifacts).
//
// Two ingest paths exist per text format:
//   * stream readers (ReadEdgeList & co.) — accept any std::istream; the
//     edge-list one is the legacy line-at-a-time parser kept as the
//     baseline the fast path is benchmarked against.
//   * buffer parsers (ParseEdgeList & co.) — scan a contiguous byte range
//     with std::from_chars; the *File readers mmap the input and use
//     these. The edge-list parser additionally splits the buffer at
//     newline boundaries and scans chunks in parallel (see
//     support/parallel.h; thread count via RPMIS_THREADS). The CSR is
//     then built by the serial Graph::FromEdges.
// Both paths enforce the same strict grammar (a malformed or
// trailing-garbage line is an error naming the 1-based line number) and
// produce identical graphs.
#ifndef RPMIS_GRAPH_IO_H_
#define RPMIS_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/graph.h"

namespace rpmis {

/// Reads a whitespace-separated edge list ("u v" per line). Lines starting
/// with '#' or '%' are comments. Vertex ids are arbitrary non-negative
/// integers and are remapped densely in order of first appearance.
/// Throws std::runtime_error on malformed input, including any non-blank
/// trailing content after the second endpoint.
Graph ReadEdgeList(std::istream& in);
Graph ReadEdgeListFile(const std::string& path);

/// Fast-path edge-list parser over an in-memory buffer (parallel chunked
/// scan + std::from_chars). Same grammar and resulting graph as
/// ReadEdgeList.
Graph ParseEdgeList(std::string_view text);

/// Writes "u v" lines, one per undirected edge, with a '#' header.
void WriteEdgeList(const Graph& g, std::ostream& out);
void WriteEdgeListFile(const Graph& g, const std::string& path);

/// Reads a DIMACS clique/VC instance: "p edge n m" then "e u v" (1-based).
/// The edge count is validated against the header; mismatch is an error.
Graph ReadDimacs(std::istream& in);
Graph ReadDimacsFile(const std::string& path);
Graph ParseDimacs(std::string_view text);

/// Writes DIMACS "p edge" format.
void WriteDimacs(const Graph& g, std::ostream& out);

/// Reads a METIS graph file: header "n m [fmt]", then line i holds the
/// 1-based neighbours of vertex i. Only unweighted (fmt 0) files are
/// supported. The total adjacency entry count is validated against 2*m.
Graph ReadMetis(std::istream& in);
Graph ReadMetisFile(const std::string& path);
Graph ParseMetis(std::string_view text);

/// Writes METIS format.
void WriteMetis(const Graph& g, std::ostream& out);

/// Binary CSR snapshot ("RPMI" magic + version + n + m + offsets +
/// neighbours, little-endian): loads in O(read) with no text parsing, the
/// format to use for repeated experiments on big graphs. Reading fully
/// validates untrusted bytes — payload length up front, then offset
/// monotonicity, neighbour range/order, and adjacency symmetry (errors
/// name the offending vertex) — and adopts the arrays directly without a
/// rebuild.
void WriteBinary(const Graph& g, std::ostream& out);
Graph ReadBinary(std::istream& in);
void WriteBinaryFile(const Graph& g, const std::string& path);
Graph ReadBinaryFile(const std::string& path);

/// On-disk graph formats understood by LoadGraphFile.
enum class GraphFormat { kAuto, kEdgeList, kDimacs, kMetis, kBinary };

/// Format deduced from the file extension: .rpmi/.bin -> binary,
/// .dimacs/.col/.clq -> DIMACS, .graph/.metis -> METIS, anything else ->
/// edge list.
GraphFormat GuessGraphFormat(const std::string& path);

/// Sidecar cache location for a text graph file: `path` + ".rpmi".
std::string GraphCachePath(const std::string& path);

struct LoadOptions {
  GraphFormat format = GraphFormat::kAuto;
  /// When true (default), text loads transparently consult/maintain the
  /// sidecar binary cache: a cache at GraphCachePath(path) at least as new
  /// as the source is loaded instead of parsing; after a parse the cache
  /// is (best-effort, atomically via rename) rewritten. Delete the .rpmi
  /// sidecar or touch the source to invalidate by hand.
  bool use_cache = true;
};

/// One-stop file loader: sniffs the format (unless pinned in `options`),
/// mmaps and parses via the fast path, and maintains the binary sidecar
/// cache. Cache write failures (e.g. read-only directories) are silently
/// ignored; corrupt caches are discarded and rebuilt from the source.
Graph LoadGraphFile(const std::string& path, const LoadOptions& options = {});

}  // namespace rpmis

#endif  // RPMIS_GRAPH_IO_H_

#!/bin/sh
# Dead-code audit: lists the librpmis functions that no shipped binary
# keeps. It builds every non-test binary (bench/, examples/, tools/) and
# misbench's driver with -ffunction-sections -fdata-sections and links them
# with --gc-sections, so each binary keeps only the functions reachable
# from its main. A function that librpmis defines (nm type T) and that no
# binary still defines is printed, demangled, one per line.
#
# Caveat: a function inlined into every caller keeps no out-of-line copy
# and is listed too (DynamicMisEngine::Evict, say). Check each candidate's
# callers by hand before deleting it. Tests are not binaries here on
# purpose: code that only its own test calls is what the audit looks for.
#
# Runs by hand (it is not in ctest); it takes a few minutes at -j4:
#   scripts/check_dead_code.sh [build-dir]      (default: build-deadcode)
# The linker's --print-gc-sections output goes to <build-dir>/gc-sections.log.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-deadcode}"
JOBS="${JOBS:-4}"
CXX_FLAGS="-ffunction-sections -fdata-sections"
LINK_FLAGS="-Wl,--gc-sections -Wl,--print-gc-sections"
LOG="$BUILD_DIR/gc-sections.log"

cmake -B "$BUILD_DIR" -S . -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="$CXX_FLAGS" -DCMAKE_EXE_LINKER_FLAGS="$LINK_FLAGS" \
  >/dev/null
cmake -S misbench -B "$BUILD_DIR/misbench" -G "Unix Makefiles" \
  -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS="$CXX_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$LINK_FLAGS" >/dev/null

: >"$LOG"
for dir in bench examples tools; do
  make -C "$BUILD_DIR/$dir" -j "$JOBS" >>"$LOG" 2>&1
done
make -C "$BUILD_DIR/misbench" -j "$JOBS" misbench >>"$LOG" 2>&1

BINARIES=$(find "$BUILD_DIR/bench" "$BUILD_DIR/examples" "$BUILD_DIR/tools" \
  -maxdepth 1 -type f -perm -u+x)
BINARIES="$BINARIES $BUILD_DIR/misbench/misbench"

# Mangled names, so the set operations never split on spaces.
nm --defined-only "$BUILD_DIR/src/librpmis.a" 2>/dev/null |
  awk 'NF == 3 && $2 == "T" { print $3 }' | sort -u >"$BUILD_DIR/defined.txt"
for b in $BINARIES; do
  nm --defined-only "$b" | awk 'NF == 3 && $2 ~ /^[TtWw]$/ { print $3 }'
done | sort -u >"$BUILD_DIR/kept.txt"

echo "binaries audited: $(echo "$BINARIES" | wc -w)" >&2
comm -23 "$BUILD_DIR/defined.txt" "$BUILD_DIR/kept.txt" | c++filt | sort

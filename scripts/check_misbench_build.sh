#!/bin/sh
# Build gate for misbench, the file-to-MIS benchmark: it compiles src/
# itself and calls the solvers' public entry points (RunBDOne(g),
# RunLinearTime(g, &snapshot), ...), so an API change in src/ that breaks
# it would make every benchmark run fail. This configures and builds the
# misbench target against this tree without running it.
#
# Usage: check_misbench_build.sh <source-dir> <build-dir>
set -eu

[ "$#" -eq 2 ] || {
  echo "usage: $0 <source-dir> <build-dir>" >&2
  exit 2
}

cmake -S "$1/misbench" -B "$2" -DCMAKE_BUILD_TYPE=Release
cmake --build "$2" --target misbench -j 4

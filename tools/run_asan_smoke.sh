#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer smoke for the scoring path
# and the inputs that arrive from outside the process: builds the repo with
# CMARKOV_SANITIZE=address,undefined and runs the detector, online monitor,
# decision audit and kernel differential tests (the register-tiled forward
# step's tile and tail indexing at every state count from 1 to 34 and up to
# 128, each against a scratch row sized exactly 2N), the serving layer
# (serve_test, and serve_net_test's CMKB frames over loopback), and
# model file I/O. Any report fails the run: ASan aborts on its first error,
# UBSan is built without recovery, and libstdc++'s assertions check every
# container index. Usage:
#
#   tools/run_asan_smoke.sh            # build into build-asan/ and run
#   BUILD_DIR=/tmp/asan tools/run_asan_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-asan}"
TESTS='^(detector_test|online_monitor_test|decision_trace_test|kernel_differential_test|serve_test|serve_net_test|model_io_test)$'

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMARKOV_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target detector_test online_monitor_test decision_trace_test \
  --target kernel_differential_test serve_test serve_net_test model_io_test

(cd "$BUILD_DIR" && \
  ASAN_OPTIONS="halt_on_error=1 abort_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --output-on-failure -R "$TESTS")

echo "ASan/UBSan smoke: clean"

#!/usr/bin/env bash
# Line-coverage gate for src/.
#
# Builds the tree in Debug with --coverage, runs the whole suite (tier-1,
# the slow suites, the five CI examples and facade_smoke), then reads the
# counters with gcov (ships with gcc; nothing to download) and prints line
# coverage per src/ module. Fails when
#   - a module's line coverage falls below its floor in FLOORS, or
#   - a src/ function never runs and is not on NEVER_RUN (with its reason).
# Floors only ever rise: raise one when a change lifts the measured value.
#
# The avx512 tier runs only on hosts with AVX-512; CI runners are AVX2.
# Every line that only that tier reaches is left out of every figure: the
# bodies of the *_avx512 / expand_bits_vbmi2 kernels and of the VBMI2
# probes, and each src/ line that names simd_level::avx512 or calls one of
# those functions. An AVX-512 host and an AVX2 host then count and hit the
# same lines. gcov line counts can still differ between compiler versions: the
# floors hold for gcc 12 on x86-64, which the CI job pins.
#
# Usage: [GCOV=gcov-12] scripts/coverage.sh [build-dir]
#   build-dir defaults to build-coverage; GCOV names the gcov that matches
#   the compiler (default: gcov).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-coverage}
jobs=$(nproc 2>/dev/null || echo 4)

# -fprofile-update=atomic: the sharded and service suites run the same
# code on several threads, and plain counter increments race there, so
# line counts (derived from arc counters) would change from run to run.
# Only src/ is instrumented (-fprofile-filter-files), which keeps the
# atomic counters out of the standard library and the suites' own code.
cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic \
-fprofile-filter-files=^$root/src/" \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage \
  -DJRF_BUILD_BENCH=OFF
cmake --build "$build" -j"$jobs"

# Counters accumulate across runs; start from zero.
find "$build" -name '*.gcda' -delete

ctest --test-dir "$build" -L tier1 --no-tests=error --output-on-failure -j"$jobs"
ctest --test-dir "$build" -L slow --no-tests=error --output-on-failure

# example_rtl_trace writes its VCD to the working directory.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
(
  cd "$scratch"
  for example in quickstart rtl_trace iot_gateway taxi_smartnic design_explorer; do
    "$build/examples/example_$example" > /dev/null
  done
  "$build/smoke/facade_smoke" > /dev/null
)

(cd "$scratch" && find "$build" -name '*.gcda' -print0 |
  xargs -0 "${GCOV:-gcov}" --json-format --preserve-paths > /dev/null 2>&1)

python3 - "$root" "$scratch" <<'PY'
import glob, gzip, json, os, re, sys

root, scratch = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep

# Line-coverage floor per src/ module, in percent: the measured value,
# truncated to one decimal.
FLOORS = {
    "api": 94.3, "core": 98.2, "data": 95.3, "dse": 94.9, "json": 97.7,
    "lut": 99.1, "net": 92.3, "netlist": 94.5, "numrange": 96.8,
    "project": 90.6, "query": 90.7, "regex": 95.0, "rtl": 94.3,
    "system": 96.5, "util": 96.9,
}

# The avx512 tier (see the header): its kernels and VBMI2 probes by
# demangled name, and the source text of the lines that select it.
AVX512_KERNELS = r"_avx512\(|::expand_bits_vbmi2\("
VBMI2_PROBES = r"::(has|probe)_vbmi2\("
AVX512_LINE = re.compile(r"simd_level::avx512|\w_(avx512|vbmi2)\(")

# Functions that no run of the suite executes, each with its reason.
# Patterns are searched in the demangled name.
NEVER_RUN = [
    (AVX512_KERNELS, "compile-only tier on CI hosts"),
    (VBMI2_PROBES,
     "asked only once the avx512 tier is selected, which CI's AVX2 runners "
     "never do"),
    (r"^jrf::regex::dfa::describe",
     "debug dump; bench_fig2_number_dfa prints it, no suite does"),
    (r"^jrf::core::filter_engine::set_accepted_hook\(",
     "throwing default of the scalar engine; the facade rejects projection "
     "on scalar engines before it is reached"),
    (r"^jrf::expected<.*>::error\(\) const$",
     "instantiated by assertion messages in the suites; runs only when an "
     "assertion fails"),
    (r"^jrf::expected<std::vector<jrf::system::shard_stats.*>::expected\("
     r"jrf::unexpected\)$",
     "pipeline::stats() error path; its report() throws only when "
     "allocation fails"),
]

lines = {}      # (file, line) -> hit count summed over translation units
functions = {}  # (file, demangled name) -> (start, end, count)
for path in glob.glob(os.path.join(scratch, "*.gcov.json.gz")):
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    cwd = doc.get("current_working_directory", "")
    for f in doc["files"]:
        name = os.path.normpath(os.path.join(cwd, f["file"]))
        if not name.startswith(src):
            continue
        for fn in f["functions"]:
            key = (name, fn["demangled_name"])
            start, end, count = functions.get(
                key, (fn["start_line"], fn["end_line"], 0))
            functions[key] = (start, end, count + fn["execution_count"])
        for ln in f["lines"]:
            k = (name, ln["line_number"])
            lines[k] = lines.get(k, 0) + ln["count"]

excluded = set()
for (name, fn), (start, end, _) in functions.items():
    if re.search(AVX512_KERNELS, fn) or re.search(VBMI2_PROBES, fn):
        excluded.update((name, n) for n in range(start, end + 1))
for name in {name for name, _ in lines}:
    with open(name, encoding="utf-8") as fh:
        excluded.update((name, n) for n, text in enumerate(fh, 1)
                        if AVX512_LINE.search(text))

def module(name):
    rel = name[len(src):]
    return rel.split(os.sep)[0] if os.sep in rel else "jrf"

totals = {}
for key, count in lines.items():
    if key in excluded:
        continue
    hit, total = totals.get(module(key[0]), (0, 0))
    totals[module(key[0])] = (hit + (count > 0), total + 1)

failed = False
print(f"{'module':<10} {'lines':>13} {'cover':>7} {'floor':>7}")
all_hit = all_total = 0
for mod in sorted(totals):
    hit, total = totals[mod]
    all_hit += hit
    all_total += total
    pct = 100.0 * hit / total
    floor = FLOORS.get(mod)
    flag = ""
    if floor is None:
        flag = "  <- no floor"
        failed = True
    elif pct < floor:
        flag = "  <- below floor"
        failed = True
    floor_text = "-" if floor is None else f"{floor:.1f}"
    print(f"{mod:<10} {hit:>6}/{total:<6} {pct:>6.1f}% {floor_text:>6}%{flag}")
print(f"{'src/':<10} {all_hit:>6}/{all_total:<6} "
      f"{100.0 * all_hit / all_total:>6.1f}%")

unlisted = []
used = set()
for (name, fn), (start, _, count) in sorted(functions.items()):
    if count:
        continue
    match = next((p for p, _ in NEVER_RUN if re.search(p, fn)), None)
    if match is None:
        unlisted.append(f"  {name[len(src):]}:{start}  {fn}")
    else:
        used.add(match)
if unlisted:
    failed = True
    print("\nnever-run functions missing from NEVER_RUN:")
    print("\n".join(unlisted))
for pattern, _ in NEVER_RUN:
    if pattern not in used and pattern != AVX512_KERNELS:
        print(f"note: NEVER_RUN entry ran on this host: {pattern}")
sys.exit(1 if failed else 0)
PY

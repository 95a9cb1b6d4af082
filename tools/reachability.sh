#!/usr/bin/env bash
# Reachability gate: fails when src/ defines a robustmap function that no
# shipped binary reaches.
#
# Usage:
#   tools/reachability.sh SRC WORKDIR   check the tree at SRC, building in
#                                       WORKDIR (incremental on reruns)
#   tools/reachability.sh --selftest    prove the gate fires on a fixture
#
# The shipped binaries are every bench/ and examples/ program plus mapbench
# (mapbench/{mapbench,ledger}.cc compiled against the same libraries). All
# of them are built at -O0 -fno-inline with one section per function and
# linked with --gc-sections, so a binary keeps exactly the code it can
# reach. The src/ libraries are also compiled with -fkeep-inline-functions,
# so a header-inline function that nothing calls still shows up in them.
# The gate diffs the robustmap:: function symbols (`_ZN9robustmap...` and
# `_ZNK9robustmap...`; constructors and destructors excluded, since the
# compiler emits those implicitly) defined by the libraries against those
# the binaries keep. Every symbol left over must match a line of
# tools/reachability_allowlist.txt:
#
#   <extended regex over the demangled name>  # <reason>
#
# An entry without a reason, or one that matches no unreached symbol, is an
# error too, so the list cannot rot.
#
# Environment: CXX (compiler, default c++), NM (default nm).
#
# Exit codes: 0 clean, 1 unreached or stale entries, 2 tool or build error.

set -u -o pipefail
NM="${NM:-nm}"
CXX="${CXX:-c++}"
JOBS="$(getconf _NPROCESSORS_ONLN 2> /dev/null || echo 2)"
HERE="$(cd "$(dirname "$0")" && pwd)"

# Prints "mangled<TAB>demangled" for each robustmap function defined in the
# given objects, archives or executables, sorted by mangled name. nm runs
# once; c++filt demangles line by line, so the two columns stay paired.
function_symbols() {
  local mangled
  mangled="$("$NM" --defined-only "$@" |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZNK?9robustmap/ { print $3 }' |
    sort -u)" || return 2
  [ -n "$mangled" ] || return 0
  paste <(printf '%s\n' "$mangled") <(printf '%s\n' "$mangled" | c++filt)
}

# Compares libraries against binaries. Usage:
#   compare ALLOWLIST LIB... -- BIN...
compare() {
  local allowlist="$1" tmp libs=() bins=()
  shift
  while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do libs+=("$1"); shift; done
  shift
  bins=("$@")
  tmp="$(mktemp -d)" || return 2
  function_symbols "${libs[@]}" > "$tmp/lib" || { rm -rf "$tmp"; return 2; }
  function_symbols "${bins[@]}" | cut -f1 > "$tmp/bin" ||
    { rm -rf "$tmp"; return 2; }
  # Library symbols no binary keeps, minus constructors (C1-C5) and
  # destructors (D0-D5): a name or template-argument list ending in one of
  # those, then the end of the nested name (E), template arguments (I) or
  # an ABI tag (B).
  awk -F'\t' 'NR == FNR { kept[$1] = 1; next }
              !($1 in kept) && $1 !~ /[0-9A-Za-z_](C[1-5]|D[0-5])[EIB]/' \
    "$tmp/bin" "$tmp/lib" | cut -f2 > "$tmp/unreached"
  awk '
    function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
    FILENAME == ARGV[1] {
      line = $0
      if (line ~ /^[ \t]*(#|$)/) next
      i = index(line, " # ")
      pat = trim(i ? substr(line, 1, i - 1) : line)
      reason = i ? trim(substr(line, i + 3)) : ""
      if (reason == "") {
        printf "reachability: allowlist entry has no reason: %s\n", pat
        bad = 1
      }
      pats[++n] = pat
      next
    }
    {
      for (k = 1; k <= n; ++k) {
        if ($0 ~ pats[k]) { used[k] = 1; next }
      }
      printf "reachability: no shipped binary reaches %s\n", $0
      bad = 1
    }
    END {
      for (k = 1; k <= n; ++k) {
        if (!(k in used)) {
          printf "reachability: allowlist entry matches nothing: %s\n", pats[k]
          bad = 1
        }
      }
      exit bad
    }' "$allowlist" "$tmp/unreached"
  local rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "reachability: $(wc -l < "$tmp/lib") robustmap functions in" \
         "${#libs[@]} libraries; $(wc -l < "$tmp/unreached") unreached," \
         "all allowlisted; ${#bins[@]} binaries checked"
  fi
  rm -rf "$tmp"
  return "$rc"
}

# Builds the fixture in tools/testdata/reachability and checks that the
# gate flags exactly its two unreached functions, and passes once an
# allowlist names them.
selftest() {
  local fx="$HERE/testdata/reachability" tmp out rc fail=0
  tmp="$(mktemp -d)" || return 2
  trap 'rm -rf "$tmp"' RETURN
  local flags=(-std=c++20 -O0 -g0 -fno-inline -ffunction-sections
               -fdata-sections -I "$fx")
  "$CXX" "${flags[@]}" -fkeep-inline-functions -c "$fx/lib.cc" \
      -o "$tmp/lib.o" &&
    ar rcs "$tmp/libfixture.a" "$tmp/lib.o" &&
    "$CXX" "${flags[@]}" -c "$fx/main.cc" -o "$tmp/main.o" &&
    "$CXX" -Wl,--gc-sections "$tmp/main.o" "$tmp/libfixture.a" \
      -o "$tmp/main" || { echo "selftest: fixture build failed"; return 2; }

  : > "$tmp/empty"
  out="$(compare "$tmp/empty" "$tmp/libfixture.a" -- "$tmp/main")"
  rc=$?
  local expected
  expected="$(printf '%s\n' \
    "reachability: no shipped binary reaches robustmap::fixture::UnreachedInline(int)" \
    "reachability: no shipped binary reaches robustmap::fixture::UnreachedOutOfLine(int)")"
  if [ "$rc" -ne 1 ] || [ "$out" != "$expected" ]; then
    printf 'selftest FAIL: empty allowlist: exit %s, output:\n%s\n' "$rc" "$out"
    fail=1
  fi

  cat > "$tmp/allow" << 'EOF'
^robustmap::fixture::Unreached(Inline|OutOfLine)\(  # fixture: kept unreached on purpose
EOF
  out="$(compare "$tmp/allow" "$tmp/libfixture.a" -- "$tmp/main")"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    printf 'selftest FAIL: allowlisted: exit %s, output:\n%s\n' "$rc" "$out"
    fail=1
  fi

  cat > "$tmp/noreason" << 'EOF'
^robustmap::fixture::Unreached
EOF
  out="$(compare "$tmp/noreason" "$tmp/libfixture.a" -- "$tmp/main")"
  rc=$?
  if [ "$rc" -ne 1 ] || [[ "$out" != *"has no reason"* ]]; then
    printf 'selftest FAIL: entry without a reason: exit %s, output:\n%s\n' \
      "$rc" "$out"
    fail=1
  fi

  cat > "$tmp/stale" << 'EOF'
^robustmap::fixture::Unreached  # fixture
^robustmap::fixture::Reached\(  # fixture: names a reached function
EOF
  out="$(compare "$tmp/stale" "$tmp/libfixture.a" -- "$tmp/main")"
  rc=$?
  if [ "$rc" -ne 1 ] || [[ "$out" != *"matches nothing"* ]]; then
    printf 'selftest FAIL: stale entry: exit %s, output:\n%s\n' "$rc" "$out"
    fail=1
  fi

  [ "$fail" -eq 0 ] && echo "reachability selftest: OK"
  return "$fail"
}

if [ "${1:-}" = "--selftest" ]; then
  selftest
  exit $?
fi
if [ "$#" -ne 2 ]; then
  echo "usage: $0 SRC WORKDIR | --selftest" >&2
  exit 2
fi

SRC="$(cd "$1" && pwd)" || exit 2
mkdir -p "$2" || exit 2
WORK="$(cd "$2" && pwd)"

# The tree-only project: src/, bench/ and examples/ as the top level adds
# them (tests off), plus mapbench, without touching mapbench/.
cat > "$WORK/CMakeLists.txt.new" << EOF
cmake_minimum_required(VERSION 3.16)
project(robustmap_reachability CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
find_package(Threads REQUIRED)
add_compile_options(-O0 -g0 -fno-inline -ffunction-sections -fdata-sections)
add_link_options(-Wl,--gc-sections)
add_subdirectory("$SRC/src" src)
foreach(lib common io storage index exec engine core viz workload)
  target_compile_options(robustmap_\${lib} PRIVATE -fkeep-inline-functions)
endforeach()
add_subdirectory("$SRC/bench" bench)
add_subdirectory("$SRC/examples" examples)
add_executable(mapbench "$SRC/mapbench/mapbench.cc" "$SRC/mapbench/ledger.cc")
target_link_libraries(mapbench PRIVATE
  robustmap_core robustmap_workload Threads::Threads)
EOF
# Rewriting an unchanged file would force a reconfigure.
if cmp -s "$WORK/CMakeLists.txt.new" "$WORK/CMakeLists.txt"; then
  rm "$WORK/CMakeLists.txt.new"
else
  mv "$WORK/CMakeLists.txt.new" "$WORK/CMakeLists.txt"
fi

generator=()
command -v ninja > /dev/null 2>&1 && generator=(-G Ninja)
if [ ! -f "$WORK/build/CMakeCache.txt" ]; then
  CXX="$CXX" cmake -S "$WORK" -B "$WORK/build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE= > "$WORK/configure.log" 2>&1 ||
    { cat "$WORK/configure.log"; exit 2; }
fi
cmake --build "$WORK/build" -j "$JOBS" > "$WORK/build.log" 2>&1 ||
  { tail -50 "$WORK/build.log"; exit 2; }

libs=("$WORK"/build/src/librobustmap_*.a)
mapfile -t bins < <(find "$WORK/build/bench" "$WORK/build/examples" \
                      -maxdepth 1 -type f -perm -u+x | sort)
bins+=("$WORK/build/mapbench")
compare "$HERE/reachability_allowlist.txt" "${libs[@]}" -- "${bins[@]}"

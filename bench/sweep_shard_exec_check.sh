#!/bin/sh
# Exec-mode sharded sweep on a small smoke grid: sweep_shard exec's one
# serving sweep_worker per lane, and the merged map must equal the
# single-process reference byte for byte. A traced run must merge the same
# bytes and show the coordinator plus at most one process per lane, and a
# progressive run over a cell cache (whose coarse levels reach the workers
# as --stride=K sublattices) must merge the same bytes too.
#
# Usage: sweep_shard_exec_check.sh BENCH_BIN_DIR WORK_DIR
set -eu
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"
grid="--row-bits=12 --min-log2=-4 --steps-per-octave=1 --plans=smoke"
workers=2
"$bin/sweep_shard" $grid --serial --out-dir=serial
"$bin/sweep_shard" $grid --workers=$workers --tiles=6 --out-dir=exec
cmp exec/merged.rmt serial/merged.rmt
"$bin/sweep_shard" $grid --workers=$workers --tiles=6 --cache-dir=cc \
    --progressive=4 --out-dir=progressive
cmp progressive/merged.rmt serial/merged.rmt
"$bin/sweep_shard" $grid --workers=$workers --tiles=6 --trace=trace.json \
    --out-dir=traced
cmp traced/merged.rmt serial/merged.rmt
pids=$(grep -o '"pid":[0-9]*' trace.json | sort -u | wc -l)
echo "traced exec run: $pids processes"
test "$pids" -gt 1
test "$pids" -le $((workers + 1))

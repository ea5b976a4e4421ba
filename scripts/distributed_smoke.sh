#!/usr/bin/env sh
# Distributed-campaign acceptance smoke: the CI proof that scale-out does
# not change results.
#
#   scripts/distributed_smoke.sh [store-dir]
#
# 1. Runs a solo campaign over a small synthetic corpus and canonicalizes
#    its store with `campaign merge` (a single-store merge sorts and
#    dedups in place).
# 2. Runs the same corpus as 3 concurrent shards (--shard i/3); shard 1
#    is killed ~30 % in (--max-jobs 1) and resumed.
# 3. Merges the shard stores in two different input orders and `cmp`s
#    results.jsonl AND cycles.jsonl byte-for-byte against the solo store.
#
# Stores land in the given directory (default ./distributed_smoke) so CI
# can upload them as artifacts when something diverges.
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-distributed_smoke}
rm -rf "$OUT"
mkdir -p "$OUT"

BIN=target/release/campaign
if [ ! -x "$BIN" ]; then
    echo "==> building campaign binary"
    cargo build --release -p via-bench --bin campaign
fi

CORPUS="--synthetic 12 --min-rows 48 --max-rows 128 --quiet"

echo "==> solo reference run"
"$BIN" run --dir "$OUT/solo" $CORPUS >/dev/null
"$BIN" merge "$OUT/solo_canon" "$OUT/solo"

echo "==> 3 concurrent shards (shard 1 killed at ~30% and resumed)"
"$BIN" run --dir "$OUT/shard0" $CORPUS --shard 0/3 >/dev/null &
SHARD0=$!
"$BIN" run --dir "$OUT/shard2" $CORPUS --shard 2/3 >/dev/null &
SHARD2=$!
"$BIN" run --dir "$OUT/shard1" $CORPUS --shard 1/3 --max-jobs 1 >/dev/null
"$BIN" run --dir "$OUT/shard1" $CORPUS --shard 1/3 --resume >/dev/null
wait $SHARD0 $SHARD2

echo "==> shard spec guard: resuming shard 1 as solo must be refused"
if "$BIN" run --dir "$OUT/shard1" $CORPUS --resume >/dev/null 2>&1; then
    echo "ERROR: resume under a different shard spec was not refused" >&2
    exit 1
fi

echo "==> merge (two input orders) and byte-compare against solo"
"$BIN" merge "$OUT/merged_a" "$OUT/shard0" "$OUT/shard1" "$OUT/shard2"
"$BIN" merge "$OUT/merged_b" "$OUT/shard2" "$OUT/shard0" "$OUT/shard1"
cmp "$OUT/merged_a/results.jsonl" "$OUT/merged_b/results.jsonl"
cmp "$OUT/merged_a/cycles.jsonl" "$OUT/merged_b/cycles.jsonl"
cmp "$OUT/merged_a/results.jsonl" "$OUT/solo_canon/results.jsonl"
cmp "$OUT/merged_a/cycles.jsonl" "$OUT/solo_canon/cycles.jsonl"
echo "    merge OK (order-independent, byte-identical to solo)"

echo "==> incremental live report over a partial fleet (shards 0 and 2)"
"$BIN" report "$OUT/shard0" "$OUT/shard2" >"$OUT/partial_report.txt"
grep -q "result rows" "$OUT/partial_report.txt"

echo "distributed smoke: OK"

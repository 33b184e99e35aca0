#!/usr/bin/env bash
# Durable byte identity of ltc_serve (DESIGN.md §11): for each scheduler,
# plus one adaptive-deadline row and one --route_workers row, a durable run
# with frequent snapshots — run twice over the same state dir, the second
# run recovering from the newest snapshot — must write the assignment log
# of the in-memory run byte for byte.
#
# Usage: tools/check_durable_identity.sh path/to/ltc_serve [work_dir]
set -euo pipefail

serve=${1:?usage: $0 path/to/ltc_serve [work_dir]}
work=${2:-$(mktemp -d)}
mkdir -p "$work"

stream=(--synthetic --tasks=300 --workers=12000 --seed=7)
rows=(
  "--algo=LAF"
  "--algo=AAM"
  "--algo=Random"
  "--algo=MCF"
  "--algo=MCF --deadline=adaptive --shards=4"
  "--algo=LAF --deadline=0.3 --route_workers --shards=4"
)

failed=0
for i in "${!rows[@]}"; do
  # shellcheck disable=SC2206  # each row is a list of flags
  row=(${rows[$i]})
  state="$work/state_$i"
  rm -rf "$state"
  "$serve" "${stream[@]}" "${row[@]}" --out="$work/mem_$i.log" > /dev/null
  for run in 1 2; do
    "$serve" "${stream[@]}" "${row[@]}" --out="$work/dur_${i}_$run.log" \
      --state_dir="$state" --snapshot_every=500 --wal_fsync=false > /dev/null
    if cmp "$work/mem_$i.log" "$work/dur_${i}_$run.log"; then
      echo "ok   ${rows[$i]} (durable run $run)"
    else
      echo "FAIL ${rows[$i]} (durable run $run)"
      failed=1
    fi
  done
done
exit "$failed"

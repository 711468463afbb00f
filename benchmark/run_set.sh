#!/bin/sh
# One set of runs: RUNS untraced runs of every workload, each with its own
# seed, appended to OUT as one JSON line per run — the input of
# `benchmark compare`. Run from the repository root:
#
#   benchmark/run_set.sh A.jsonl [RUNS] [FIRST_SEED]
set -eu
out=$1
runs=${2:-10}
first=${3:-1}
for workload in road_comm rmat_compute svc_query svc_update; do
    i=0
    while [ "$i" -lt "$runs" ]; do
        cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed $((first + i)) --out "$out" >/dev/null
        i=$((i + 1))
    done
done

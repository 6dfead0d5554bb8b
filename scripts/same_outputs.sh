#!/usr/bin/env bash
# Check that two source trees write the same files:
#
#     scripts/same_outputs.sh PARENT_DIR CHANGE_DIR
#
# From each tree's own src/, runs every config in its configs/ through
# `hitlaw run` at --threads 1, 2 and 3, and each benchmark workload of
# perfbench/workloads.py at seed 0 and two workers, into one temporary
# directory per tree; each run's exit code is kept beside its outputs.
# Then `diff -r` compares the two result trees, manifest.json included.
# Exits 0 when every file is identical, 1 on any difference, 2 on misuse;
# on success it also counts the runs that exited 0, as two trees failing
# alike are identical too.
set -euo pipefail

if [ $# -ne 2 ] || [ ! -d "$1/src" ] || [ ! -d "$2/src" ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR (two source checkouts)" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

outputs() {   # outputs TREE DEST
    local tree=$1 dest=$2 cfg name threads workload code
    mkdir -p "$dest"
    for cfg in "$tree"/configs/*.yaml; do
        name=$(basename "$cfg" .yaml)
        for threads in 1 2 3; do
            code=0
            PYTHONPATH="$tree/src" python3 -m hitlaw.cli run --config "$cfg" \
                --threads "$threads" --out "$dest/$name-t$threads" \
                > /dev/null || code=$?
            echo "$code" > "$dest/$name-t$threads.exit"
        done
    done
    for workload in $(PYTHONPATH="$tree/perfbench" python3 -c \
            'import workloads; print(*workloads.WORKLOADS)'); do
        code=0
        PYTHONPATH="$tree/src:$tree/perfbench" python3 - "$workload" \
            "$dest/$workload" <<'PY' || code=$?
import sys

import workloads
from hitlaw.config import build_config
from hitlaw.experiments import run_experiment

run_experiment(build_config(workloads.make_tree(sys.argv[1], 0, 2)), sys.argv[2])
PY
        echo "$code" > "$dest/$workload.exit"
    done
}

outputs "$parent" "$out/parent"
outputs "$change" "$out/change"
if diff -r "$out/parent" "$out/change"; then
    echo "identical: $(find "$out/change" -type f | wc -l) files;" \
        "$(grep -lx 0 "$out"/change/*.exit | wc -l) of" \
        "$(ls "$out"/change/*.exit | wc -l) runs exited 0"
else
    exit 1
fi

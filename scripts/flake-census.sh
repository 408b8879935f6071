#!/usr/bin/env bash
# Flake census: runs the tier-1 suite N times on a scratch copy of this
# working tree and prints, for every test that failed at least once, how
# many runs it failed and the first panic line it printed.
#
#   scripts/flake-census.sh [N] [WORKDIR]
#
# N defaults to 20. WORKDIR (default: a fresh `mktemp -d`) receives the
# copy (WORKDIR/src, built in WORKDIR/target), one log per run
# (WORKDIR/run-K.log) and the summary (WORKDIR/census.txt). The copy holds
# the tracked and untracked-but-not-ignored files, so uncommitted changes
# are censused too. A run that hangs is cut after 1200 seconds and
# counted as a failure of "(run timed out or failed outside a test)".
#
# Tier-1 is `cargo build --release && cargo test -q`; the build runs once,
# then `cargo test --no-fail-fast` N times (without -q, so the log names
# each test binary). Exits 1 if any run failed, 0 if all N were clean.
set -euo pipefail

runs=${1:-20}
work=${2:-$(mktemp -d)}
timeout_s=1200
src=$(cd "$(dirname "$0")/.." && pwd)

mkdir -p "$work/src"
echo "census of $runs runs in $work"
(cd "$src" && git ls-files -z -co --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$work/src"
export CARGO_TARGET_DIR="$work/target"
cd "$work/src"
cargo build --release --offline --quiet

# Reads one run's log; prints "test<TAB>first panic line" per failed test.
# A test is named `<binary>::<path>`: the crate for unit tests
# (`netobj_transport::reactor::tests::…`), the file stem for an
# integration test (`observability::…`).
failures() {
    awk '
        function flush() {
            if (name != "") print name "\t" (first == "" ? "(no panic line)" : first)
            name = ""
        }
        /^ +Running / {
            bin = $NF; gsub(/[()]/, "", bin); sub(/.*\//, "", bin); sub(/-[0-9a-f]+$/, "", bin)
        }
        /^ +Doc-tests / { bin = "doc:" $2 }
        /^---- .* stdout ----$/ { flush(); name = bin "::" $2; first = ""; grab = 0; next }
        grab { first = first " " $0; grab = 0; next }
        name != "" && first == "" && / panicked at / {
            first = $0; sub(/.* panicked at /, "", first); grab = 1; next
        }
        END { flush() }
    ' "$1"
}

clean=0
: > "$work/failures.tsv"
for k in $(seq 1 "$runs"); do
    log="$work/run-$k.log"
    if timeout "$timeout_s" cargo test --offline --no-fail-fast >"$log" 2>&1; then
        clean=$((clean + 1))
        echo "run $k/$runs: clean"
    else
        found=$(failures "$log")
        if [ -z "$found" ]; then
            found=$(printf '(run timed out or failed outside a test)\tsee run-%s.log' "$k")
        fi
        printf '%s\n' "$found" >> "$work/failures.tsv"
        echo "run $k/$runs: $(printf '%s\n' "$found" | cut -f1 | paste -sd, -)"
    fi
done

{
    echo "clean runs: $clean of $runs"
    if [ -s "$work/failures.tsv" ]; then
        echo
        printf 'failed\ttest\tfirst panic line (first occurrence)\n'
        # Count per test; keep each test's first panic line.
        awk -F'\t' '
            { n[$1]++; if (!($1 in line)) line[$1] = $2 }
            END { for (t in n) printf "%d\t%s\t%s\n", n[t], t, line[t] }
        ' "$work/failures.tsv" | sort -t$'\t' -k1,1nr -k2,2
    fi
} | tee "$work/census.txt"

[ "$clean" -eq "$runs" ]

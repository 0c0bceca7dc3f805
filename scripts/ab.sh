#!/usr/bin/env bash
# Layout-robust A/B of one benchmark target: PARENT against the working
# tree (or against commit CHANGE), each built under several code layouts.
#
#   scripts/ab.sh PARENT TARGET [PAIRS [CHANGE]]
#
# TARGET is one of
#   WORKLOAD[:SEED]        an `e2e` workload (seed 7 by default): work_per_s,
#                          higher is better; setup_s and peak_rss_mb are
#                          kept beside it;
#   trace:WORKLOAD[:SEED]  the same workload traced (`--trace 1`): core.job_s,
#                          lower is better, with the layer metrics in LAYERS
#                          kept beside it;
#   micro:CASE             a `micro --quick` case: its last side's time,
#                          lower is better;
#   scale:smoke            `scale --smoke`'s 1 000-node point: tasks per wall
#                          second, higher is better.
#
# Both sides are built once per layout variant (the default, every
# function aligned to 2^FN_ALIGN bytes, every non-fall-through block
# aligned to 2^BLOCK_ALIGN bytes), each variant in a target directory of
# its own. Pair i runs variant i mod 3, parent first on odd pairs; a run's
# working directory is its own tree. The script prints per-variant and
# pooled median [q1, q3] a side, the ratio (above 1: the change is
# better), how many pairs the change leads, and the layout spread (the
# largest minus the smallest per-variant ratio), and writes all of it,
# with every run, to target/ab/<label>.json.
#
# Committed trees are exported with `git archive`, so an interrupted run
# leaves no state in the repository. A gain below 1.10x holds only if the
# change leads in every variant.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi
parent=$(git rev-parse --short "$1^{commit}")
target=$2
pairs=${3:-10}
change=${4:+$(git rev-parse --short "$4^{commit}")}
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "error: PAIRS='$pairs': expected a positive integer" >&2; exit 2; }

FN_ALIGN=6
BLOCK_ALIGN=5
variants=(default funcs blocks)
rustflags() {
    case $1 in
        default) echo "" ;;
        funcs) echo "-C llvm-args=-align-all-functions=$FN_ALIGN" ;;
        blocks) echo "-C llvm-args=-align-all-nofallthru-blocks=$BLOCK_ALIGN" ;;
    esac
}
LAYERS="core.job_s cc.map_busy_s cc.combine_busy_s runtime.cpu_task_self_s runtime.sort_s cc.map_ns_per_record"

seed=7
case $target in
    micro:*) kind=micro what=${target#micro:} better=lower ;;
    scale:smoke) kind=scale what=smoke better=higher ;;
    trace:*) kind=trace what=${target#trace:} better=lower ;;
    *) kind=e2e what=$target better=higher ;;
esac
if [ "$kind" = e2e ] || [ "$kind" = trace ]; then
    case $what in *:*) seed=${what#*:} what=${what%%:*} ;; esac
fi

ab=$root/target/ab
mkdir -p "$ab/trees" "$ab/bin"
label="${parent}_vs_${change:-worktree}_${target//:/-}"
runs=$ab/$label.runs.tsv
: >"$runs"

# tree SIDE COMMIT: the source tree a side builds from.
tree() {
    if [ -z "$2" ]; then
        echo "$root"
        return
    fi
    local dir=$ab/trees/$2
    if [ ! -d "$dir" ]; then
        mkdir -p "$dir.tmp"
        git archive "$2" | tar -x -C "$dir.tmp"
        mv "$dir.tmp" "$dir"
    fi
    echo "$dir"
}

# build TREE VARIANT OUT: the target's binary, copied to OUT.
build() {
    local tree=$1 variant=$2 out=$3 dir
    dir=$ab/build/$(basename "$out")
    local lock="$tree/e2e/Cargo.lock"
    cp "$lock" "$ab/Cargo.lock.keep"
    case $kind in
        e2e | trace)
            RUSTFLAGS=$(rustflags "$variant") CARGO_TARGET_DIR=$dir \
                cargo build --release --offline -q --manifest-path "$tree/e2e/Cargo.toml"
            cp "$dir/release/e2e" "$out" ;;
        micro | scale)
            RUSTFLAGS=$(rustflags "$variant") CARGO_TARGET_DIR=$dir \
                cargo build --release --offline -q --manifest-path "$tree/Cargo.toml" \
                -p hetero-bench --bin "$kind"
            cp "$dir/release/$kind" "$out" ;;
    esac
    # An e2e build rewrites the frozen lock file; put it back.
    cp "$ab/Cargo.lock.keep" "$lock"
}

# measure BIN TREE: one run's metric (then, for e2e and trace, its extras).
measure() {
    local bin=$1 tree=$2 out
    case $kind in
        e2e)
            out=$(cd "$tree" && "$bin" --workload "$what" --seed "$seed" --seconds 12 --trace 0 | tail -n 1)
            echo "$(metric "$out" work_per_s) setup_s=$(metric "$out" setup_s) peak_rss_mb=$(metric "$out" peak_rss_mb)" ;;
        trace)
            out=$(cd "$tree" && "$bin" --workload "$what" --seed "$seed" --seconds 12 --trace 1 | tail -n 1)
            local line m
            line=$(metric "$out" core.job_s)
            for m in $LAYERS; do line="$line $m=$(metric "$out" "$m")"; done
            echo "$line" ;;
        micro)
            (cd "$tree" && "$bin" --quick >/dev/null 2>&1)
            micro_case "$tree/target/results/micro.json" ;;
        scale)
            out=$(cd "$tree" && "$bin" --smoke)
            echo "$out" | sed -n 's/.* \([0-9]*\) tasks\/wall-s.*/\1/p' ;;
    esac
}

# metric LINE NAME: the value of NAME in an e2e result line.
metric() {
    echo "$1" | sed -n "s/.*\"$2\": {\"value\": \([-0-9.e+]*\).*/\1/p"
}

# micro_case FILE: the median_s of the last side of case $what (one
# case a line in micro.json).
micro_case() {
    grep "\"case\":\"$what\"" "$1" | grep -o '"median_s":[-0-9.e+]*' | tail -n 1 | cut -d: -f2
}

ptree=$(tree parent "$parent")
ctree=$(tree change "$change")
echo "== building $kind for $parent and ${change:-the working tree} under ${#variants[@]} layouts" >&2
for v in "${variants[@]}"; do
    build "$ptree" "$v" "$ab/bin/$parent-$kind-$v"
    build "$ctree" "$v" "$ab/bin/${change:-worktree}-$kind-$v"
done

echo "== $pairs alternating pairs of $target" >&2
for ((i = 1; i <= pairs; i++)); do
    v=${variants[$(((i - 1) % ${#variants[@]}))]}
    sides=(parent change)
    ((i % 2 == 1)) || sides=(change parent)
    for side in "${sides[@]}"; do
        if [ "$side" = parent ]; then
            r=$(measure "$ab/bin/$parent-$kind-$v" "$ptree")
        else
            r=$(measure "$ab/bin/${change:-worktree}-$kind-$v" "$ctree")
        fi
        [ -n "${r%% *}" ] || { echo "error: pair $i ($side, $v): no metric" >&2; exit 1; }
        printf '%s\t%s\t%s\t%s\n' "$i" "$v" "$side" "$r" | tee -a "$runs" >&2
    done
done

# Digest: quantiles by linear interpolation at p·(n−1), as `micro` does.
awk -F'\t' -v better="$better" -v label="$label" -v target="$target" -v out="$ab/$label.json" \
    -v parent="$parent" -v change="${change:-worktree}" -v pairs="$pairs" \
    -v vlist="${variants[*]}" '
function q(arr, n, p,    at, lo, hi) {
    at = p * (n - 1); lo = int(at); hi = (at > lo) ? lo + 1 : lo
    return arr[lo] + (arr[hi] - arr[lo]) * (at - lo)
}
function sortn(arr, n,    i, j, t) {
    for (i = 1; i < n; i++) for (j = i; j > 0 && arr[j - 1] > arr[j]; j--) {
        t = arr[j]; arr[j] = arr[j - 1]; arr[j - 1] = t
    }
}
function stats(key,    n, i, a) {
    n = cnt[key]
    for (i = 0; i < n; i++) a[i] = val[key, i]
    sortn(a, n)
    med[key] = q(a, n, 0.5); q1[key] = q(a, n, 0.25); q3[key] = q(a, n, 0.75)
}
function ratio(p, c) { return better == "higher" ? c / p : p / c }
{
    split($4, f, " "); x = f[1] + 0
    for (g = 0; g < 2; g++) {
        key = (g ? "pooled" : $2) SUBSEP $3
        val[key, cnt[key]++] = x
    }
    pv[$1, $3] = x
    for (k = 2; k in f; k++) { split(f[k], kv, "="); extra[$3, kv[1], xc[$3, kv[1]]++] = kv[2]; names[kv[1]] = 1 }
}
END {
    nv = split(vlist, vs, " "); vs[nv + 1] = "pooled"
    lead = 0
    for (i = 1; i <= pairs; i++) {
        r = ratio(pv[i, "parent"], pv[i, "change"]); if (r > 1) lead++
        pr[i] = r
    }
    lo = 1e300; hi = -1e300; all_lead = 1
    printf "%-8s %-34s %-34s %s\n", "layout", "parent median [q1, q3]", "change median [q1, q3]", "ratio"
    js = ""
    for (k = 1; k <= nv + 1; k++) {
        v = vs[k]
        if (cnt[v, "parent"] == 0) continue
        stats(v SUBSEP "parent"); stats(v SUBSEP "change")
        r = ratio(med[v, "parent"], med[v, "change"])
        if (v != "pooled") { if (r < lo) lo = r; if (r > hi) hi = r; if (r <= 1) all_lead = 0 }
        printf "%-8s %-34s %-34s %.3f\n", v,
            sprintf("%.6g [%.6g, %.6g]", med[v, "parent"], q1[v, "parent"], q3[v, "parent"]),
            sprintf("%.6g [%.6g, %.6g]", med[v, "change"], q1[v, "change"], q3[v, "change"]), r
        js = js sprintf("%s\n    {\"layout\": \"%s\", \"pairs\": %d, \"parent\": {\"median\": %.9g, \"q1\": %.9g, \"q3\": %.9g}, \"change\": {\"median\": %.9g, \"q1\": %.9g, \"q3\": %.9g}, \"ratio\": %.6f}",
            (js == "" ? "" : ","), v, cnt[v, "parent"], med[v, "parent"], q1[v, "parent"], q3[v, "parent"],
            med[v, "change"], q1[v, "change"], q3[v, "change"], r)
    }
    pooled = ratio(med["pooled", "parent"], med["pooled", "change"])
    printf "change better in %d/%d pairs; layout spread %.3f; leads in every layout: %s\n", lead, pairs, hi - lo, all_lead ? "yes" : "no"
    ex = ""
    for (m in names) {
        for (s = 0; s < 2; s++) {
            side = s ? "change" : "parent"; n = xc[side, m]
            for (i = 0; i < n; i++) b[i] = extra[side, m, i]
            sortn(b, n); em[side] = q(b, n, 0.5)
        }
        printf "  %-26s parent median %.6g   change median %.6g\n", m, em["parent"], em["change"]
        ex = ex sprintf("%s\n    \"%s\": {\"parent_median\": %.9g, \"change_median\": %.9g}", (ex == "" ? "" : ","), m, em["parent"], em["change"])
    }
    runs = ""
    for (i = 1; i <= pairs; i++) runs = runs sprintf("%s%.6f", (i > 1 ? ", " : ""), pr[i])
    printf "{\n  \"label\": \"%s\",\n  \"target\": \"%s\",\n  \"parent\": \"%s\",\n  \"change\": \"%s\",\n  \"better\": \"%s\",\n  \"pairs\": %d,\n  \"change_leads\": %d,\n  \"pooled_ratio\": %.6f,\n  \"layout_spread\": %.6f,\n  \"leads_every_layout\": %s,\n  \"pair_ratios\": [%s],\n  \"layouts\": [%s\n  ],\n  \"extras\": {%s\n  }\n}\n",
        label, target, parent, change, better, pairs, lead, pooled, hi - lo, all_lead ? "true" : "false", runs, js, ex > out
}' "$runs"
echo "wrote $ab/$label.json" >&2

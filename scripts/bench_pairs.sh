#!/usr/bin/env bash
# Alternating parent/change pairs of perfbench runs, summarized per metric.
#
#   scripts/bench_pairs.sh LABEL PARENT_BIN PARENT_ROOT CHANGE_BIN CHANGE_ROOT \
#       WORKLOAD SECONDS FIRST_SEED PAIRS [TRACE]
#   scripts/bench_pairs.sh --summarize TSV
#
# PARENT_BIN and CHANGE_BIN are prebuilt perfbench binaries
# (`cargo build --release --manifest-path perfbench/Cargo.toml` in each
# checkout, then copy `perfbench/target/release/popan-perfbench`). Each
# runs from its own checkout root, since perfbench reads the repro
# goldens and `.git/HEAD` from there. Pair i runs seed FIRST_SEED + i
# on both sides for SECONDS each; the parent goes first in even pairs
# and the change in odd ones, so host drift falls on both sides alike.
#
# TRACE is 0 (the default) or 1, passed to both sides as `--trace`.
# Untraced runs print the end-to-end metrics; traced runs print the
# per-layer ones (`spatial.*`, `query.*`, `experiments.*_s`, ...), so a
# traced round shows which layer a change moved. A traced run also
# writes its spans to `<root>/.bench_out/spans-<workload>-<seed>.tsv`
# (a binary writes them under the checkout it was built in, so build
# each side in its own root); for every span name among the children of
# the run's `bench.setup` spans the round adds one row,
# `setup.<name>_s`, the median of their durations in seconds (e.g.
# `setup.experiments.pmr_s` for the `pmr` driver's set-up runs), so a
# `setup_s` change can be traced to the driver that moved.
#
# Writes bench/pairs/LABEL-WORKLOAD.json in this repository
# (LABEL-WORKLOAD-traced.json when TRACE is 1), and exits 2 before the
# first run if that file exists, so a rerun under the same label never
# replaces runs already on record. The file holds:
#   * `host`: the `# perfbench` stamp line of each side's first run
#     (available_parallelism, commit, threads);
#   * `checkout`: each side's checkout `HEAD` and whether its working
#     tree was dirty (`git status --porcelain` non-empty) before the
#     runs. The stamp reads `.git/HEAD` only, so a run from a dirty
#     tree carries the commit it was not built from;
#   * `trace`, and `seeds`, and `first` (which side ran first in each
#     pair);
#   * `metrics`: for every `metric` line perfbench printed, each side's
#     median and Q1–Q3 over the pairs, the per-pair ratio change ÷
#     parent (median, min, max), and `wins`, the pairs the change read
#     better in (in the direction of the metric's `better` in
#     BENCHMARK.json; for a metric that file does not list, higher for
#     a `ratio` or `1/s` unit, such as `ops_per_s`, lower for every
#     other; ties count for neither side), and for each end-to-end
#     metric of BENCHMARK.json a `verdict` (below);
#   * `same_digests_and_counters`: the pairs whose `digest` and
#     `counter` lines were identical on both sides;
#   * `runs`: every run's `metric` lines, keyed by seed and side.
# Nothing under perfbench/ is read or written except through the two
# binaries.
#
# The verdict applies the acceptance rule to the numbers above and to
# the metric's `bound` in BENCHMARK.json, a fraction of the parent's
# median, read from that file and nothing else. With P pairs, the
# first rule that holds gives it:
#   * `gain`: wins >= ceil(0.9 P), and the change's median is better
#     than the parent's by more than the parent's Q3 - Q1;
#   * `worse`: the change's median is worse than the parent's by more
#     than bound x the parent's median;
#   * `unresolved`: the parent's Q3 - Q1 exceeds bound x its median,
#     and some change run does not beat every parent run;
#   * `flat`: everything else.
#
# `--summarize TSV` prints that `metrics` object for a file of the
# lines the pair runs collect, `seed<TAB>side<TAB>metric<TAB>value<TAB>unit`
# with side `parent` or `change`, and runs nothing.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# Median and quartiles by linear interpolation between order statistics.
quartiles() { # reads numbers on stdin, prints "q1 median q3"
  sort -g | awk '{v[NR] = $1}
    function q(p,   h, l) { h = 1 + p * (NR - 1); l = int(h); return v[l] + (h - l) * (v[l + 1 < NR ? l + 1 : NR] - v[l]) }
    END { printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}

summarize() { # tsv: prints the `metrics` object
  local tsv=$1 metrics n_metrics k=0 m unit bound better p1 pm p3 c1 cm c3 pairs higher_better wins n_pairs
  local ratios rm rmin rmax all_better verdict sep
  echo "{"
  metrics=$(cut -f3 "$tsv" | awk '!seen[$0]++')
  n_metrics=$(echo "$metrics" | wc -l)
  for m in $metrics; do
    k=$((k + 1))
    unit=$(awk -F'\t' -v m="$m" '$3 == m {print $5; exit}' "$tsv")
    bound=$(sed -n "s/.*\"name\": *\"$m\".*\"bound\": *\([0-9.eE+-]*\).*/\1/p" "$ROOT/BENCHMARK.json")
    better=$(sed -n "s/.*\"name\": *\"$m\".*\"better\": *\"\([a-z]*\)\".*/\1/p" "$ROOT/BENCHMARK.json")
    read -r p1 pm p3 <<< "$(awk -F'\t' -v m="$m" '$3 == m && $2 == "parent" {print $4}' "$tsv" | quartiles)"
    read -r c1 cm c3 <<< "$(awk -F'\t' -v m="$m" '$3 == m && $2 == "change" {print $4}' "$tsv" | quartiles)"
    # Per-pair ratio and wins, pairing the two sides by seed.
    pairs=$(awk -F'\t' -v m="$m" '$3 == m {v[$1 "," $2] = $4; s[$1]}
      END { for (k in s) if ((k ",parent") in v && (k ",change") in v) print v[k ",parent"], v[k ",change"] }' \
      "$tsv")
    case $better/$unit in
      higher/* | /ratio | /1/s) higher_better=1 ;;
      *) higher_better=0 ;;
    esac
    wins=$(echo "$pairs" | awk -v hb="$higher_better" '(hb ? $2 > $1 : $2 < $1) {w++} END {print w + 0}')
    n_pairs=$(echo "$pairs" | awk 'NF == 2 {n++} END {print n + 0}')
    ratios=$(echo "$pairs" | awk '$1 != 0 {printf "%.6g\n", $2 / $1}')
    if [ -n "$ratios" ]; then
      read -r _ rm _ <<< "$(echo "$ratios" | quartiles)"
      rmin=$(echo "$ratios" | sort -g | head -n 1)
      rmax=$(echo "$ratios" | sort -g | tail -n 1)
    else
      rm=null rmin=null rmax=null
    fi
    verdict=""
    if [ -n "$bound" ]; then
      # 1 when every change run beats every parent run.
      all_better=$(awk -F'\t' -v m="$m" -v hb="$higher_better" '$3 == m {
          x = hb ? -$4 : $4
          if ($2 == "parent" && (!p || x < pmin)) { pmin = x; p = 1 }
          if ($2 == "change" && (!c || x > cmax)) { cmax = x; c = 1 }
        } END { print (p && c && cmax < pmin) ? 1 : 0 }' "$tsv")
      verdict=$(awk -v hb="$higher_better" -v wins="$wins" -v n="$n_pairs" -v b="$bound" -v all="$all_better" \
        -v p1="$p1" -v pm="$pm" -v p3="$p3" -v cm="$cm" 'BEGIN {
          better = hb ? cm - pm : pm - cm
          if (n > 0 && wins >= int((9 * n + 9) / 10) && better > p3 - p1) print "gain"
          else if (-better > b * pm) print "worse"
          else if (p3 - p1 > b * pm && !all) print "unresolved"
          else print "flat"
        }')
      verdict=", \"verdict\": \"$verdict\""
    fi
    sep=","
    [ "$k" -eq "$n_metrics" ] && sep=""
    printf '    "%s": {"unit": "%s", "parent": {"median": %s, "q1": %s, "q3": %s}, "change": {"median": %s, "q1": %s, "q3": %s}, "ratio": {"median": %s, "min": %s, "max": %s}, "wins": %s%s}%s\n' \
      "$m" "$unit" "$pm" "$p1" "$p3" "$cm" "$c1" "$c3" "$rm" "$rmin" "$rmax" "$wins" "$verdict" "$sep"
  done
  echo "  }"
}

if [ "$#" -eq 2 ] && [ "$1" = --summarize ]; then
  summarize "$2"
  exit 0
fi
if [ "$#" -ne 9 ] && [ "$#" -ne 10 ]; then
  sed -n '2,6p' "$0" >&2
  exit 2
fi
LABEL=$1 PARENT_BIN=$2 PARENT_ROOT=$3 CHANGE_BIN=$4 CHANGE_ROOT=$5
WORKLOAD=$6 SECONDS_PER_RUN=$7 FIRST_SEED=$8 PAIRS=$9 TRACE=${10:-0}
case $TRACE in
  0) SUFFIX="" ;;
  1) SUFFIX="-traced" ;;
  *)
    echo "bench_pairs: TRACE must be 0 or 1, not $TRACE" >&2
    exit 2
    ;;
esac

OUT_DIR="$ROOT/bench/pairs"
mkdir -p "$OUT_DIR"
OUT="$OUT_DIR/$LABEL-$WORKLOAD$SUFFIX.json"
if [ -e "$OUT" ]; then
  echo "bench_pairs: $OUT exists; choose a new LABEL" >&2
  exit 2
fi
WORK=$(mktemp -d "${TMPDIR:-/tmp}/popan-pairs.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# Prints `setup.<name>_s<TAB>seconds` for each span name among the
# children of the `bench.setup` spans in a spans file (columns `index
# name start_ns end_ns parent request`): the median of their durations.
setup_rows() { # spans.tsv
  awk -F'\t' '/^#/ || $1 == "index" {next}
    {name[$1] = $2; parent[$1] = $5; ns[$1] = $4 - $3}
    END {for (i in parent) if (name[parent[i]] == "bench.setup") print name[i] "\t" ns[i]}' "$1" |
    sort -t "$(printf '\t')" -k1,1 -k2,2g |
    awk -F'\t' '
      function flush(   h, l) {
        if (n == 0) return
        h = 1 + 0.5 * (n - 1); l = int(h)
        printf "setup.%s_s\t%.9g\n", key, (v[l] + (h - l) * (v[l + 1 < n ? l + 1 : n] - v[l])) / 1e9
      }
      $1 != key {flush(); key = $1; n = 0}
      {v[++n] = $2}
      END {flush()}'
}

run() { # side seed
  local bin root spans
  if [ "$1" = parent ]; then bin=$PARENT_BIN root=$PARENT_ROOT; else bin=$CHANGE_BIN root=$CHANGE_ROOT; fi
  spans="$root/.bench_out/spans-$WORKLOAD-$2.tsv"
  [ "$TRACE" = 1 ] && rm -f "$spans"
  (cd "$root" && "$bin" --workload "$WORKLOAD" --seed "$2" --seconds "$SECONDS_PER_RUN" --trace "$TRACE") \
    > "$WORK/$1-$2.out"
  grep '^metric ' "$WORK/$1-$2.out" | awk -v s="$2" -v side="$1" '{print s "\t" side "\t" $2 "\t" $3 "\t" $4}' \
    >> "$WORK/metrics.tsv"
  if [ "$TRACE" = 1 ]; then
    if [ ! -f "$spans" ]; then
      echo "bench_pairs: the $1 run wrote no $spans; build its binary in that checkout" >&2
      exit 1
    fi
    setup_rows "$spans" | awk -F'\t' -v s="$2" -v side="$1" '{print s "\t" side "\t" $1 "\t" $2 "\ts"}' \
      >> "$WORK/metrics.tsv"
  fi
  echo "bench_pairs: $WORKLOAD seed $2 $1 done" >&2
}

checkout() { # root: {"head": ..., "dirty": ...}
  local head dirty=false
  head=$(git -C "$1" rev-parse HEAD 2> /dev/null || echo unknown)
  [ -n "$(git -C "$1" --no-optional-locks status --porcelain 2> /dev/null)" ] && dirty=true
  echo "{\"head\": \"$head\", \"dirty\": $dirty}"
}
CHECKOUT_PARENT=$(checkout "$PARENT_ROOT") CHECKOUT_CHANGE=$(checkout "$CHANGE_ROOT")

: > "$WORK/metrics.tsv"
seeds=() firsts=() same=0
for ((i = 0; i < PAIRS; i++)); do
  seed=$((FIRST_SEED + i))
  seeds+=("$seed")
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  firsts+=("\"${order%% *}\"")
  for side in $order; do run "$side" "$seed"; done
  if cmp -s <(grep -E '^(digest|counter) ' "$WORK/parent-$seed.out") \
            <(grep -E '^(digest|counter) ' "$WORK/change-$seed.out"); then
    same=$((same + 1))
  fi
done

join_by() { local IFS=,; echo "$*"; }
stamp() { head -n 1 "$WORK/$1-${seeds[0]}.out" | sed 's/"/\\"/g'; }

{
  echo "{"
  echo "  \"label\": \"$LABEL\", \"workload\": \"$WORKLOAD\", \"seconds\": $SECONDS_PER_RUN, \"pairs\": $PAIRS, \"trace\": $TRACE,"
  echo "  \"host\": {\"parent\": \"$(stamp parent)\", \"change\": \"$(stamp change)\"},"
  echo "  \"checkout\": {\"parent\": $CHECKOUT_PARENT, \"change\": $CHECKOUT_CHANGE},"
  echo "  \"seeds\": [$(join_by "${seeds[@]}")],"
  echo "  \"first\": [$(join_by "${firsts[@]}")],"
  echo "  \"same_digests_and_counters\": $same,"
  echo "  \"metrics\": $(summarize "$WORK/metrics.tsv"),"
  echo "  \"runs\": ["
  for ((i = 0; i < PAIRS; i++)); do
    for side in parent change; do
      seed=${seeds[$i]}
      body=$(awk -F'\t' -v s="$seed" -v side="$side" '$1 == s && $2 == side {printf "%s\"%s\": %s", sep, $3, $4; sep = ", "}' \
        "$WORK/metrics.tsv")
      sep=","
      [ "$i" -eq $((PAIRS - 1)) ] && [ "$side" = change ] && sep=""
      echo "    {\"seed\": $seed, \"side\": \"$side\", \"metrics\": {$body}}$sep"
    done
  done
  echo "  ]"
  echo "}"
} > "$OUT"
echo "bench_pairs: wrote $OUT" >&2

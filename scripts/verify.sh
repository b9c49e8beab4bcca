#!/usr/bin/env bash
# Full offline verification: build, test, and smoke-bench the workspace.
#
# The repo is hermetic — every dependency lives in-tree (popan-rng,
# popan-proptest, the popan-bench harness), so this script must succeed
# with no network and an empty cargo registry. CI runs it with network
# access disabled to keep that invariant honest.
set -euo pipefail
cd "$(dirname "$0")/.."

# Static invariants first (DESIGN.md §8, §14): popan-lint builds the
# whole-workspace call graph and enforces the determinism/hermeticity/
# layering rules plus the transitive taint rules before anything
# expensive runs. A reintroduced HashMap in the engine, a wall-clock
# read in a trial path, a crates.io dependency, or a new panic edge
# under a serving entry point all fail right here. Pre-existing
# findings ride in lint-baseline.json (a per-site ratchet: counts may
# only shrink); the machine-readable report is archived next to the
# bench artifacts.
mkdir -p bench
cargo run -q --release --offline -p popan-lint -- \
  --baseline lint-baseline.json --json > bench/lint-report.json || {
  cat bench/lint-report.json >&2
  echo "verify: popan-lint gate failed (report above)" >&2; exit 1; }
# The ratchet must stay exact: popan-lint only notes a stale entry, and
# says nothing of an entry whose live count fell below its recorded
# count, yet either leaves slack a later regression could ride on. So
# every finding the baseline records must still be live and suppressed.
suppressed=$(sed -n 's/.*"baseline":{"suppressed":\([0-9]*\),.*/\1/p' bench/lint-report.json)
recorded=$(sed -n 's/.*"count": *\([0-9]*\)}.*/\1/p' lint-baseline.json | awk '{s += $1} END {print s + 0}')
[ -n "$suppressed" ] && [ "$suppressed" -eq "$recorded" ] || {
  echo "verify: lint-baseline.json records $recorded findings but the report suppressed ${suppressed:-none}; lower or delete the entries with slack" >&2; exit 1; }

# Formatting and clippy gates. The toolchain components are optional in
# minimal containers; skip with a visible notice rather than failing
# the whole verification when they are absent.
if cargo fmt --version > /dev/null 2>&1; then
  cargo fmt --all --check
else
  echo "verify: NOTICE — rustfmt unavailable, skipping cargo fmt --check" >&2
fi
if cargo clippy --version > /dev/null 2>&1; then
  cargo clippy --release --offline --workspace --all-targets -- -D warnings
else
  echo "verify: NOTICE — clippy unavailable, skipping cargo clippy" >&2
fi

# Rustdoc gate: a broken or ambiguous intra-doc link, a public doc that
# links a private item, or a stray HTML tag fails here instead of
# passing as a warning.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# The pair summary's acceptance rule (scripts/bench_pairs.sh), on a
# fixture whose verdicts are known: one end-to-end metric per verdict,
# op_p50_us a median gain with too few wins to count, and a per-layer
# metric that gets no verdict.
verdicts=$(scripts/bench_pairs.sh --summarize scripts/fixtures/pair_verdicts.tsv |
  sed -n 's/^ *"\([^"]*\)": {.*"verdict": "\([a-z]*\)"}.*/\1 \2/p')
[ "$verdicts" = "setup_s unresolved
op_p50_us flat
op_p99_us worse
pass_s gain
ok_frac worse" ] || {
  echo "verify: bench_pairs.sh --summarize gave the wrong verdicts on the fixture: $verdicts" >&2; exit 1; }
# Wins follow each metric's `better` in BENCHMARK.json, not its unit:
# the fixture's query.range_hits (a count, better higher) rises in
# every one of its 10 pairs.
hits_wins=$(scripts/bench_pairs.sh --summarize scripts/fixtures/pair_verdicts.tsv |
  sed -n 's/^ *"query.range_hits": {.*"wins": \([0-9]*\).*/\1/p')
[ "$hits_wins" = 10 ] || {
  echo "verify: bench_pairs.sh --summarize counted $hits_wins of 10 wins for query.range_hits" >&2; exit 1; }

cargo build --release --offline --workspace
# The whole suite runs twice: once forced sequential, once on four
# engine workers. The experiment engine's contract is that the two are
# bit-identical (tests/engine_determinism.rs asserts it directly; this
# double run keeps every other test honest under parallel execution).
POPAN_THREADS=1 cargo test -q --offline --workspace
POPAN_THREADS=4 cargo test -q --offline --workspace
# Fault-injection suite: panic isolation, retry determinism, and
# checkpoint behavior, exercised explicitly (they are also part of the
# workspace runs above; this names them so a regression is unmissable).
cargo test -q --offline -p popan-engine --test fault_isolation
cargo test -q --offline -p popan-experiments --test engine_determinism
# Query-tier concurrency suite, named explicitly at both reader counts:
# the epoch-publish harness reads POPAN_THREADS for its reader pool, so
# these two runs prove the merged result log is bit-identical for 1 and
# 4 concurrent readers (plus the oracle differential + zero-alloc read
# proofs riding in the same crate).
POPAN_THREADS=1 cargo test -q --offline -p popan-query
POPAN_THREADS=4 cargo test -q --offline -p popan-query
# Batch differential suite, named at both reader counts: the
# Morton-batched serving forms must be bit-identical to the serial
# forms AND the full-scan oracle at every original query index, and a
# POPAN_THREADS-wide pool of concurrent readers running the same batch
# must agree byte-for-byte.
POPAN_THREADS=1 cargo test -q --offline -p popan-query --test batch_equivalence
POPAN_THREADS=4 cargo test -q --offline -p popan-query --test batch_equivalence
# Serving-path chaos suite, named at both reader counts: scripted
# corrupt/stall/reject fault rounds must leave every reader serving the
# last-good snapshot (verified, never torn) with a quarantine log and
# health counters that match the serial oracle bit for bit, and the
# post-fault recovery publish must restore byte-identical digests.
POPAN_THREADS=1 cargo test -q --offline -p popan-query --test chaos
POPAN_THREADS=4 cargo test -q --offline -p popan-query --test chaos
# perfbench self-test (its own workspace, tiny sizes): pins the serving
# answer and snapshot digests and the query.* work counters, so a change
# that moves any of them fails here, not only in a benchmark run.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Graceful degradation: an injected panic fails one registry entry; the
# runner must exit 1 yet still produce the other artifacts.
DEGRADE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/popan-degrade.XXXXXX")
trap 'rm -rf "$DEGRADE_DIR"' EXIT
set +e
POPAN_FAULTS='table1/m1:0:panic' \
  target/release/repro table1 fig1 --quick --json "$DEGRADE_DIR" > /dev/null 2>&1
degrade_status=$?
set -e
[ "$degrade_status" -eq 1 ] || {
  echo "verify: degraded repro run should exit 1, got $degrade_status" >&2; exit 1; }
grep -q '"error"' "$DEGRADE_DIR/table1.json" || {
  echo "verify: failed driver must write an error artifact" >&2; exit 1; }
grep -q '"ascii"' "$DEGRADE_DIR/fig1.json" || {
  echo "verify: surviving drivers must still produce artifacts" >&2; exit 1; }

# Kill-and-resume: abort mid-run via an injected fault, resume from the
# checkpoint, require a byte-identical JSON artifact.
bash scripts/resume_smoke.sh

# Split-tree renewal-theory driver: the regression slopes must be
# bit-identical between a sequential run and four engine workers (the
# linear fits consume engine-aggregated means, so any parallel
# nondeterminism would surface in the JSON bytes).
SPLIT_DIR=$(mktemp -d "${TMPDIR:-/tmp}/popan-split.XXXXXX")
trap 'rm -rf "$DEGRADE_DIR" "$SPLIT_DIR"' EXIT
POPAN_THREADS=1 target/release/repro split --quick --json "$SPLIT_DIR/t1" > /dev/null
POPAN_THREADS=4 target/release/repro split --quick --json "$SPLIT_DIR/t4" > /dev/null
cmp "$SPLIT_DIR/t1/split.json" "$SPLIT_DIR/t4/split.json" || {
  echo "verify: split artifact differs between 1 and 4 engine threads" >&2; exit 1; }

# --smoke: one iteration per bench, just proving every target runs and
# writes its BENCH_<group>.json artifact. The smoke run writes into a
# fresh directory, so an artifact left by an earlier run cannot stand
# in for a group that wrote nothing; smoke timings are single-iteration
# noise and are never archived (bench/BENCH_<group>.json holds the
# committed full-run trajectory).
SMOKE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/popan-smoke.XXXXXX")
trap 'rm -rf "$DEGRADE_DIR" "$SPLIT_DIR" "$SMOKE_DIR"' EXIT
POPAN_BENCH_DIR="$SMOKE_DIR" cargo bench -q --offline --workspace -- --smoke
for group in spatial query split query_faults lint exthash pmr; do
  [ -f "$SMOKE_DIR/BENCH_$group.json" ] || {
    echo "verify: bench smoke did not produce BENCH_$group.json" >&2; exit 1; }
done

echo "verify: lint (baselined graph analysis, report archived) + build + test (POPAN_THREADS=1 and =4) + faults + resume + query suite + chaos suite + perfbench self-test + split bit-identity + bench smoke (BENCH_spatial, BENCH_query, BENCH_split, BENCH_query_faults, BENCH_lint, BENCH_exthash, BENCH_pmr) all green (offline)"

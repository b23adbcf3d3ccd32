#!/bin/sh
# Local CI: formatting, lints, release build, and the test suite — the same
# gate a hosted pipeline would run. Operates on the default member set, which
# is every crate in the workspace (crates/bench included). Builds are
# `--locked`: the committed Cargo.lock plus the in-tree `vendor/` directory
# make the pipeline reproducible with no network access.
set -eu

echo "==> vendored stand-ins: rebuild them when vendor/ changed"
# vendor/ is a cargo directory source whose checksum files are empty, so
# cargo never notices an edit there and a warm target dir keeps running the
# old stand-in. Keep a checksum of vendor/ in target/; when it changes,
# clean the five vendored packages in every target dir this script builds
# into: target/ (debug and release), .bench_build/ and benchmark/target/.
vendor_stamp=target/.vendor-checksum
vendor_sum=$(find vendor -type f -exec cksum {} + | LC_ALL=C sort | cksum)
if [ "$(cat "$vendor_stamp" 2>/dev/null || true)" != "$vendor_sum" ]; then
  set -- -p proptest -p rand -p serde -p serde_derive -p serde_json
  cargo clean -q --offline "$@"
  cargo clean -q --offline --release "$@"
  CARGO_TARGET_DIR=.bench_build \
    cargo clean -q --offline --release --manifest-path benchmark/Cargo.toml "$@"
  cargo clean -q --offline --release --manifest-path benchmark/Cargo.toml "$@"
  set --
  mkdir -p target
  printf '%s\n' "$vendor_sum" > "$vendor_stamp"
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --all-targets --locked -- -D warnings

echo "==> cargo build --release"
cargo build --release --locked

SMOKE_DIR="$(mktemp -d)"
server_pid=""
# NB: guard the kill — an unconditional `kill "${server_pid:-0}"` would
# signal pid 0, i.e. this script's own process group.
trap 'if [ -n "$server_pid" ]; then kill "$server_pid" 2>/dev/null || true; fi; rm -rf "$SMOKE_DIR"' EXIT

echo "==> examples + experiments: every library surface runs to completion"
# `cargo test` only compiles the examples. Run every examples/*.rs binary
# and the `experiments` report, the surfaces that decide whether library
# code is reachable; csv_pipeline writes under the temp dir, so TMPDIR
# points into SMOKE_DIR.
cargo build --release --locked --examples
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  TMPDIR="$SMOKE_DIR" "target/release/examples/$name" > /dev/null \
    || { echo "example $name exited nonzero"; exit 1; }
done
TMPDIR="$SMOKE_DIR" target/release/experiments > /dev/null \
  || { echo "experiments exited nonzero"; exit 1; }

echo "==> cargo test"
cargo test -q --locked

echo "==> benchmark crate tests (compiles it against the workspace crates)"
# benchmark/ is a workspace of its own: the root build and test above never
# compile it, so an API change that breaks it would otherwise only show up
# when the benchmark runs.
CARGO_TARGET_DIR=.bench_build \
  cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> benchmark --quick: every benchmark correctness gate on tiny inputs"
# Wire verdicts against in-process searches on the 8-QI cold-search table,
# warm against cold, journal recovery, and CLI releases: the gates a
# benchmark run checks before it prints a number. CARGO_TARGET_DIR stays
# unset so the benchmark drives the root release build made above.
cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml -- \
  run --seed 1 --out "$SMOKE_DIR/bench-quick" --quick > /dev/null

echo "==> smoke: budget-interrupted anonymize (exit 3, termination report)"
PSENS=target/release/psens
"$PSENS" generate --rows 50000 --seed 7 --out "$SMOKE_DIR/data.csv" > /dev/null
"$PSENS" spec --out "$SMOKE_DIR/spec.json" > /dev/null
# An already-expired deadline (--timeout 0) interrupts deterministically at
# the first budget poll: exit 3, no release written, report names the cause.
code=0
"$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
  --out "$SMOKE_DIR/masked.csv" --k 3 --p 2 --ts 500 --timeout 0 --threads 1 \
  --report "$SMOKE_DIR/report.json" > /dev/null || code=$?
[ "$code" -eq 3 ] || { echo "expected exit 3 on expired deadline, got $code"; exit 1; }
[ ! -e "$SMOKE_DIR/masked.csv" ] || { echo "interrupted run must not write a release"; exit 1; }
grep -q '"reason": "deadline_exceeded"' "$SMOKE_DIR/report.json"
grep -q '"command": "anonymize"' "$SMOKE_DIR/report.json"
# A node budget interrupts at the same point every run: the termination and
# search counters of two identical runs must match line for line. Pinned to
# --threads 1 because a budget shared across parallel workers trips at a
# racy node, while the serial path is exactly reproducible.
for run in 1 2; do
  code=0
  "$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
    --out "$SMOKE_DIR/masked_$run.csv" --k 3 --p 2 --ts 500 --max-nodes 5 --threads 1 \
    --report "$SMOKE_DIR/report_$run.json" > /dev/null || code=$?
  [ "$code" -eq 3 ] || { echo "expected exit 3 on node budget, got $code"; exit 1; }
  grep -E '"(reason|max_nodes|nodes_evaluated|satisfied|node|proven_min_height)"' \
    "$SMOKE_DIR/report_$run.json" > "$SMOKE_DIR/stable_$run"
done
cmp -s "$SMOKE_DIR/stable_1" "$SMOKE_DIR/stable_2" \
  || { echo "interrupted runs are not deterministic"; diff "$SMOKE_DIR/stable_1" "$SMOKE_DIR/stable_2"; exit 1; }

echo "==> smoke: parallel + cached search is byte-for-byte deterministic"
# Unbudgeted, the parallel probe must pick the same (lexicographic-first)
# winner as the serial scan, and replayed verdicts must not change it: two
# 8-thread runs, one cache-disabled run and one serial run produce identical
# releases. The stratum runner behind --threads is the only parallel path.
for run in par_1 par_2; do
  "$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
    --out "$SMOKE_DIR/$run.csv" --k 3 --p 2 --ts 500 --threads 8 > /dev/null
done
"$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
  --out "$SMOKE_DIR/no_cache.csv" --k 3 --p 2 --ts 500 --threads 8 --no-cache > /dev/null
"$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
  --out "$SMOKE_DIR/serial.csv" --k 3 --p 2 --ts 500 --threads 1 > /dev/null
cmp "$SMOKE_DIR/par_1.csv" "$SMOKE_DIR/par_2.csv" \
  || { echo "8-thread releases differ between runs"; exit 1; }
cmp "$SMOKE_DIR/par_1.csv" "$SMOKE_DIR/no_cache.csv" \
  || { echo "--no-cache changed the release"; exit 1; }
cmp "$SMOKE_DIR/par_1.csv" "$SMOKE_DIR/serial.csv" \
  || { echo "--threads 1 and --threads 8 releases differ"; exit 1; }

echo "==> smoke: model matrix (check + anonymize under every privacy model, PRAM backend)"
# Every pluggable model must drive the CLI end to end. The raw CSV is not
# even 3-anonymous, so `check` exits 2 (violation) under every model — the
# same code as the psens-k baseline — and `anonymize` must find a release
# (exit 0) under each, byte-identical with the verdict store off. entropy-l
# runs at l = 1 because the synthetic Adult confidential columns are too
# skewed to reach ln 2 at any generalization; t-closeness is always
# satisfiable at the top node (one group, EMD 0).
baseline_code=0
"$PSENS" check --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
  --k 3 --p 2 > /dev/null || baseline_code=$?
[ "$baseline_code" -eq 2 ] \
  || { echo "raw data should fail the psens-k check with exit 2, got $baseline_code"; exit 1; }
for entry in "psens-k --p 2" "distinct-l --l 2" "entropy-l --l 1" "t-closeness --t 0.5"; do
  set -- $entry
  model=$1; shift
  code=0
  "$PSENS" check --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
    --model "$model" "$@" --k 3 > /dev/null || code=$?
  [ "$code" -eq "$baseline_code" ] \
    || { echo "check --model $model exited $code, baseline $baseline_code"; exit 1; }
  code=0
  "$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
    --model "$model" "$@" --k 3 --ts 500 --threads 8 \
    --out "$SMOKE_DIR/model_$model.csv" > /dev/null || code=$?
  [ "$code" -eq 0 ] || { echo "anonymize --model $model exited $code"; exit 1; }
  [ -s "$SMOKE_DIR/model_$model.csv" ] \
    || { echo "anonymize --model $model wrote no release"; exit 1; }
  "$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
    --model "$model" "$@" --k 3 --ts 500 --threads 8 --no-cache \
    --out "$SMOKE_DIR/model_${model}_no_cache.csv" > /dev/null
  cmp "$SMOKE_DIR/model_$model.csv" "$SMOKE_DIR/model_${model}_no_cache.csv" \
    || { echo "--no-cache changed the $model release"; exit 1; }
done
# The shared distinct-count predicate must yield the same release bytes
# whether it is called p-sensitivity or distinct l-diversity.
cmp "$SMOKE_DIR/model_psens-k.csv" "$SMOKE_DIR/model_distinct-l.csv" \
  || { echo "psens-k(p=2) and distinct-l(l=2) releases diverged"; exit 1; }
# The PRAM backend fixes the QI at the k-minimal node, then re-draws the
# confidential cells of the groups the table-level model check flags, one
# sweep at a time. entropy-l at l = 1 holds there: two runs with one seed
# must write the same release. psens-k at p = 2 keeps failing on the integer
# confidential attributes, which PRAM cannot re-draw, until the 64-sweep cap
# ends it (exit 2). t-closeness is refused up front (exit 1).
for run in 1 2; do
  "$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
    --algorithm pram --model entropy-l --l 1 --k 3 --ts 500 --seed 7 \
    --out "$SMOKE_DIR/pram_$run.csv" > /dev/null \
    || { echo "pram entropy-l run $run failed"; exit 1; }
done
cmp "$SMOKE_DIR/pram_1.csv" "$SMOKE_DIR/pram_2.csv" \
  || { echo "pram releases differ between runs with one seed"; exit 1; }
code=0
"$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
  --algorithm pram --model psens-k --p 2 --k 3 --ts 500 \
  --out "$SMOKE_DIR/pram_psens.csv" > "$SMOKE_DIR/pram_psens.out" || code=$?
[ "$code" -eq 2 ] && grep -q 'could not repair' "$SMOKE_DIR/pram_psens.out" \
  || { echo "pram psens-k should exit 2 and report 'could not repair', got $code"; exit 1; }
code=0
"$PSENS" anonymize --spec "$SMOKE_DIR/spec.json" --input "$SMOKE_DIR/data.csv" \
  --algorithm pram --model t-closeness --t 0.5 --k 3 --ts 500 \
  --out "$SMOKE_DIR/pram_tclose.csv" > /dev/null 2> "$SMOKE_DIR/pram_tclose.err" || code=$?
[ "$code" -eq 1 ] && grep -q 'PRAM backend unsupported' "$SMOKE_DIR/pram_tclose.err" \
  || { echo "pram t-closeness should exit 1 as unsupported, got $code"; exit 1; }

echo "==> smoke: 10M-row streaming ingest stays under a 2 GB memory ceiling"
# `check` streams the CSV into the columnar table through 64 KiB reads and
# never holds the file's text, so checking the ~486 MB 10M-row scale CSV
# peaks well under a 2 GB address-space ceiling (columnar table + group-by
# scratch). The control run proves the ceiling is binding, not generous:
# `query` without --spec infers the schema, which still buffers the whole
# text plus per-field strings (~5.5 GB).
"$PSENS" generate --profile scale --rows 10000000 --seed 1 \
  --out "$SMOKE_DIR/scale.csv" > /dev/null
"$PSENS" spec --profile scale --out "$SMOKE_DIR/scale_spec.json" > /dev/null
code=0
( ulimit -v 2000000
  exec "$PSENS" check --spec "$SMOKE_DIR/scale_spec.json" --input "$SMOKE_DIR/scale.csv" \
    --k 1 --p 1 > "$SMOKE_DIR/scale_check" 2>&1 ) || code=$?
[ "$code" -eq 0 ] || { echo "streaming check broke the memory ceiling (exit $code)"; cat "$SMOKE_DIR/scale_check"; exit 1; }
grep -q 'rows: 10000000' "$SMOKE_DIR/scale_check"
code=0
( ulimit -v 2000000
  exec "$PSENS" query --input "$SMOKE_DIR/scale.csv" \
    --sql "SELECT COUNT(*) FROM data" > /dev/null 2>&1 ) || code=$?
[ "$code" -ne 0 ] || { echo "ceiling not binding: schema-inferring query fit in 2 GB"; exit 1; }

echo "==> smoke: psens-server boot, mixed load, warm==cold verdicts, SIGINT shutdown"
# Boot the daemon on an ephemeral port; --addr-file hands the bound address
# to clients with no race on stdout parsing. psens-load then drives three
# concurrent clients through a cold (store-disabled) and a warm pass of
# mixed check/anonymize/analyze/query traffic — it exits nonzero itself if
# any two anonymize verdicts diverge or the BENCH JSON fails write-back
# validation.
target/release/psens-server --listen 127.0.0.1:0 --max-concurrent 2 \
  --addr-file "$SMOKE_DIR/server.addr" > "$SMOKE_DIR/server.log" 2>&1 &
server_pid=$!
tries=0
while [ ! -s "$SMOKE_DIR/server.addr" ] && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1)); sleep 0.1
done
[ -s "$SMOKE_DIR/server.addr" ] \
  || { echo "server never wrote its addr file"; cat "$SMOKE_DIR/server.log"; exit 1; }
target/release/psens-load --addr-file "$SMOKE_DIR/server.addr" \
  --clients 3 --requests 12 --rows 150 --out "$SMOKE_DIR/BENCH_8.json" > /dev/null
grep -q '"warm_vs_cold"' "$SMOKE_DIR/BENCH_8.json"
grep -q '"robustness"' "$SMOKE_DIR/BENCH_8.json"
# Warm-vs-cold equivalence through the CLI client: the same anonymize with
# the verdict store disabled, cold, and warm must print byte-identical
# verdict objects — only the execution-side `warm` flag may differ.
"$PSENS" client --addr-file "$SMOKE_DIR/server.addr" --op register --name ci-adult \
  --input "$SMOKE_DIR/data.csv" --spec "$SMOKE_DIR/spec.json" > /dev/null
"$PSENS" client --addr-file "$SMOKE_DIR/server.addr" --op anonymize --dataset ci-adult \
  --p 2 --k 3 --ts 500 --no-cache > "$SMOKE_DIR/anon_nocache.json"
"$PSENS" client --addr-file "$SMOKE_DIR/server.addr" --op anonymize --dataset ci-adult \
  --p 2 --k 3 --ts 500 > "$SMOKE_DIR/anon_cold.json"
"$PSENS" client --addr-file "$SMOKE_DIR/server.addr" --op anonymize --dataset ci-adult \
  --p 2 --k 3 --ts 500 > "$SMOKE_DIR/anon_warm.json"
grep -q '"warm": true' "$SMOKE_DIR/anon_warm.json" \
  || { echo "third anonymize should have hit the warm store"; exit 1; }
for f in anon_nocache anon_cold anon_warm; do
  sed -n '/"verdict"/,/^  }/p' "$SMOKE_DIR/$f.json" > "$SMOKE_DIR/$f.verdict"
done
cmp "$SMOKE_DIR/anon_nocache.verdict" "$SMOKE_DIR/anon_cold.verdict" \
  || { echo "no-cache vs cold-store verdicts diverged"; exit 1; }
cmp "$SMOKE_DIR/anon_cold.verdict" "$SMOKE_DIR/anon_warm.verdict" \
  || { echo "cold vs warm-store verdicts diverged"; exit 1; }
# Clean shutdown: SIGINT must fan out to in-flight work, drain, and exit 0
# with the shutdown banner — a hung or killed-by-signal server fails here.
kill -INT "$server_pid"
server_rc=0
wait "$server_pid" || server_rc=$?
server_pid=""
[ "$server_rc" -eq 0 ] \
  || { echo "server exited $server_rc on SIGINT"; cat "$SMOKE_DIR/server.log"; exit 1; }
grep -q 'shutdown complete' "$SMOKE_DIR/server.log" \
  || { echo "server log missing shutdown banner"; cat "$SMOKE_DIR/server.log"; exit 1; }

echo "==> chaos: seeded faults under load, kill -9 mid-load, crash recovery"
# Boot with a state dir, fault injection enabled, and a seeded boot-time
# fault plan that eats the first anonymize responses and slows every fifth
# check. Retrying clients must push identical verdicts through the faults;
# then the server is kill -9'd mid-load and restarted over the same state
# dir, and the recovered (journal-only, snapshot lost) verdicts must be
# byte-identical to the pre-crash ones.
CHAOS_DIR="$SMOKE_DIR/chaos-state"
PSENS_FAULTS='{"seed":11,"rules":[{"site":"write_response","op":"anonymize","action":"drop","first":2},{"site":"exec","op":"check","action":"delay_ms","ms":25,"every":5}]}' \
target/release/psens-server --listen 127.0.0.1:0 --max-concurrent 2 \
  --state-dir "$CHAOS_DIR" --enable-inject \
  --addr-file "$SMOKE_DIR/chaos.addr" > "$SMOKE_DIR/chaos1.log" 2>&1 &
server_pid=$!
tries=0
while [ ! -s "$SMOKE_DIR/chaos.addr" ] && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1)); sleep 0.1
done
[ -s "$SMOKE_DIR/chaos.addr" ] \
  || { echo "chaos server never wrote its addr file"; cat "$SMOKE_DIR/chaos1.log"; exit 1; }
# Pre-crash baseline through the retrying CLI client (the plan drops the
# first two anonymize responses; --retries must absorb them).
"$PSENS" client --addr-file "$SMOKE_DIR/chaos.addr" --op register --name chaos-adult \
  --input "$SMOKE_DIR/data.csv" --spec "$SMOKE_DIR/spec.json" --retries 5 > /dev/null
"$PSENS" client --addr-file "$SMOKE_DIR/chaos.addr" --op anonymize --dataset chaos-adult \
  --p 2 --k 3 --ts 500 --retries 5 > "$SMOKE_DIR/chaos_pre.json"
# Mixed load under the remaining faults: must exit 0 with honest counters.
target/release/psens-load --addr-file "$SMOKE_DIR/chaos.addr" \
  --clients 3 --requests 10 --rows 120 --retries 6 \
  --out "$SMOKE_DIR/BENCH_8_chaos.json" > /dev/null
grep -q '"robustness"' "$SMOKE_DIR/BENCH_8_chaos.json"
# kill -9 mid-load: another load starts, the server dies under it.
target/release/psens-load --addr-file "$SMOKE_DIR/chaos.addr" \
  --clients 2 --requests 8 --rows 120 --retries 2 > /dev/null 2>&1 &
load_pid=$!
sleep 0.3
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
wait "$load_pid" 2>/dev/null || true  # the load loses its server; that IS the test
# Restart over the same state dir: the write-ahead journal must replay the
# registrations (the un-synced snapshot never existed — pools rebuild cold).
target/release/psens-server --listen 127.0.0.1:0 --state-dir "$CHAOS_DIR" \
  --addr-file "$SMOKE_DIR/chaos.addr2" > "$SMOKE_DIR/chaos2.log" 2>&1 &
server_pid=$!
tries=0
while [ ! -s "$SMOKE_DIR/chaos.addr2" ] && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1)); sleep 0.1
done
[ -s "$SMOKE_DIR/chaos.addr2" ] \
  || { echo "recovered server never wrote its addr file"; cat "$SMOKE_DIR/chaos2.log"; exit 1; }
grep -q 'recovered' "$SMOKE_DIR/chaos2.log" \
  || { echo "restart log missing recovery banner"; cat "$SMOKE_DIR/chaos2.log"; exit 1; }
# Cold (rebuilt) and warm post-crash verdicts must equal the pre-crash one.
"$PSENS" client --addr-file "$SMOKE_DIR/chaos.addr2" --op anonymize --dataset chaos-adult \
  --p 2 --k 3 --ts 500 > "$SMOKE_DIR/chaos_cold.json"
"$PSENS" client --addr-file "$SMOKE_DIR/chaos.addr2" --op anonymize --dataset chaos-adult \
  --p 2 --k 3 --ts 500 > "$SMOKE_DIR/chaos_warm.json"
grep -q '"warm": true' "$SMOKE_DIR/chaos_warm.json" \
  || { echo "second post-crash anonymize should have hit the warm store"; exit 1; }
for f in chaos_pre chaos_cold chaos_warm; do
  sed -n '/"verdict"/,/^  }/p' "$SMOKE_DIR/$f.json" > "$SMOKE_DIR/$f.verdict"
done
cmp "$SMOKE_DIR/chaos_pre.verdict" "$SMOKE_DIR/chaos_cold.verdict" \
  || { echo "pre-crash vs recovered-cold verdicts diverged"; exit 1; }
cmp "$SMOKE_DIR/chaos_cold.verdict" "$SMOKE_DIR/chaos_warm.verdict" \
  || { echo "recovered cold vs warm verdicts diverged"; exit 1; }
# Leak check: a burst of short-lived connections must leave the server's
# thread and fd counts where they were (per-connection watcher, no
# per-request spawns, connections fully reaped).
if [ -r "/proc/$server_pid/status" ]; then
  sleep 0.5
  threads_before=$(awk '/^Threads:/{print $2}' "/proc/$server_pid/status")
  fds_before=$(ls "/proc/$server_pid/fd" | wc -l)
  i=0
  while [ "$i" -lt 10 ]; do
    i=$((i + 1))
    "$PSENS" client --addr-file "$SMOKE_DIR/chaos.addr2" --op stats > /dev/null
  done
  sleep 0.5
  threads_after=$(awk '/^Threads:/{print $2}' "/proc/$server_pid/status")
  fds_after=$(ls "/proc/$server_pid/fd" | wc -l)
  [ "$threads_after" -le "$threads_before" ] \
    || { echo "server leaked threads: $threads_before -> $threads_after"; exit 1; }
  [ "$fds_after" -le "$fds_before" ] \
    || { echo "server leaked fds: $fds_before -> $fds_after"; exit 1; }
fi
# Clean shutdown of the recovered server writes the snapshot this time.
kill -INT "$server_pid"
server_rc=0
wait "$server_pid" || server_rc=$?
server_pid=""
[ "$server_rc" -eq 0 ] \
  || { echo "recovered server exited $server_rc on SIGINT"; cat "$SMOKE_DIR/chaos2.log"; exit 1; }
grep -q 'shutdown complete' "$SMOKE_DIR/chaos2.log" \
  || { echo "recovered server log missing shutdown banner"; cat "$SMOKE_DIR/chaos2.log"; exit 1; }
grep -q 'snapshot written' "$SMOKE_DIR/chaos2.log" \
  || { echo "clean shutdown should have written a snapshot"; cat "$SMOKE_DIR/chaos2.log"; exit 1; }

echo "==> incremental: 200-delta stream, incremental == scratch, kill -9 mid-stream + resume"
# The DESIGN.md §17 contract end to end through the release binaries: a
# seeded 200-batch update stream fed through `client --op update` must leave
# the live table verdict-identical (at 1 and 8 threads) to a fresh server
# registered directly with the converged table — and a kill -9 mid-stream
# must lose nothing acknowledged: the write-ahead delta journal replays the
# prefix, `stats.deltas_applied` is the resume cursor, and the resumed
# stream converges to the same verdicts.
INC_DIR="$SMOKE_DIR/incremental"
mkdir -p "$INC_DIR"
"$PSENS" generate --rows 400 --seed 17 --out "$INC_DIR/base.csv" \
  --deltas 200 --deltas-out "$INC_DIR/deltas.jsonl" --final-out "$INC_DIR/final.csv" > /dev/null
target/release/psens-server --listen 127.0.0.1:0 --state-dir "$INC_DIR/state" \
  --addr-file "$INC_DIR/live.addr" > "$INC_DIR/live1.log" 2>&1 &
server_pid=$!
tries=0
while [ ! -s "$INC_DIR/live.addr" ] && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1)); sleep 0.1
done
[ -s "$INC_DIR/live.addr" ] \
  || { echo "incremental server never wrote its addr file"; cat "$INC_DIR/live1.log"; exit 1; }
"$PSENS" client --addr-file "$INC_DIR/live.addr" --op register --name inc-adult \
  --input "$INC_DIR/base.csv" --spec "$SMOKE_DIR/spec.json" > /dev/null
# A watch keeps a warm pool under selective invalidation across the stream.
"$PSENS" client --addr-file "$INC_DIR/live.addr" --op watch --dataset inc-adult \
  --p 2 --k 3 --ts 50 > /dev/null
# Stream the first 120 batches, then kill -9 with no clean shutdown.
n=0
while read -r batch && [ "$n" -lt 120 ]; do
  n=$((n + 1))
  "$PSENS" client --addr-file "$INC_DIR/live.addr" --op update --dataset inc-adult \
    --delta "$batch" > /dev/null
done < "$INC_DIR/deltas.jsonl"
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
target/release/psens-server --listen 127.0.0.1:0 --state-dir "$INC_DIR/state" \
  --addr-file "$INC_DIR/live2.addr" > "$INC_DIR/live2.log" 2>&1 &
server_pid=$!
tries=0
while [ ! -s "$INC_DIR/live2.addr" ] && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1)); sleep 0.1
done
[ -s "$INC_DIR/live2.addr" ] \
  || { echo "restarted incremental server never wrote its addr file"; cat "$INC_DIR/live2.log"; exit 1; }
# Every acknowledged update was journaled write-ahead (synced per record),
# so the replayed prefix is exactly the 120 batches the client saw land.
"$PSENS" client --addr-file "$INC_DIR/live2.addr" --op stats > "$INC_DIR/stats_resume.json"
applied=$(grep -o '"deltas_applied": [0-9]*' "$INC_DIR/stats_resume.json" | head -1 | grep -o '[0-9]*')
[ "$applied" = "120" ] \
  || { echo "resume cursor should be 120 journaled deltas, got '$applied'"; cat "$INC_DIR/live2.log"; exit 1; }
# Resume exactly where the journal left off and finish the stream.
n=0
while read -r batch; do
  n=$((n + 1))
  [ "$n" -le "$applied" ] && continue
  "$PSENS" client --addr-file "$INC_DIR/live2.addr" --op update --dataset inc-adult \
    --delta "$batch" > /dev/null
done < "$INC_DIR/deltas.jsonl"
# The live table must now have converged to final.csv's row count...
final_rows=$(($(wc -l < "$INC_DIR/final.csv") - 1))
"$PSENS" client --addr-file "$INC_DIR/live2.addr" --op stats > "$INC_DIR/stats_done.json"
grep -q "\"rows\": $final_rows" "$INC_DIR/stats_done.json" \
  || { echo "live table row count diverged from generate --final-out ($final_rows)"; cat "$INC_DIR/stats_done.json"; exit 1; }
# ...and a scratch server registered with final.csv directly must produce
# byte-identical verdicts at 1 and 8 threads.
target/release/psens-server --listen 127.0.0.1:0 \
  --addr-file "$INC_DIR/scratch.addr" > "$INC_DIR/scratch.log" 2>&1 &
scratch_pid=$!
tries=0
while [ ! -s "$INC_DIR/scratch.addr" ] && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1)); sleep 0.1
done
[ -s "$INC_DIR/scratch.addr" ] \
  || { echo "scratch server never wrote its addr file"; cat "$INC_DIR/scratch.log"; kill -9 "$scratch_pid" 2>/dev/null || true; exit 1; }
"$PSENS" client --addr-file "$INC_DIR/scratch.addr" --op register --name inc-adult \
  --input "$INC_DIR/final.csv" --spec "$SMOKE_DIR/spec.json" > /dev/null
for threads in 1 8; do
  "$PSENS" client --addr-file "$INC_DIR/live2.addr" --op anonymize --dataset inc-adult \
    --p 2 --k 3 --ts 50 --threads "$threads" > "$INC_DIR/inc_t$threads.json"
  "$PSENS" client --addr-file "$INC_DIR/scratch.addr" --op anonymize --dataset inc-adult \
    --p 2 --k 3 --ts 50 --threads "$threads" > "$INC_DIR/scr_t$threads.json"
  for f in "inc_t$threads" "scr_t$threads"; do
    sed -n '/"verdict"/,/^  }/p' "$INC_DIR/$f.json" > "$INC_DIR/$f.verdict"
  done
  cmp "$INC_DIR/inc_t$threads.verdict" "$INC_DIR/scr_t$threads.verdict" \
    || { echo "incremental vs scratch verdicts diverged at threads=$threads"; kill -9 "$scratch_pid" 2>/dev/null || true; exit 1; }
done
cmp "$INC_DIR/inc_t1.verdict" "$INC_DIR/inc_t8.verdict" \
  || { echo "incremental verdicts diverged between 1 and 8 threads"; kill -9 "$scratch_pid" 2>/dev/null || true; exit 1; }
kill -INT "$scratch_pid"
wait "$scratch_pid" 2>/dev/null || true
kill -INT "$server_pid"
server_rc=0
wait "$server_pid" || server_rc=$?
server_pid=""
[ "$server_rc" -eq 0 ] \
  || { echo "incremental server exited $server_rc on SIGINT"; cat "$INC_DIR/live2.log"; exit 1; }

echo "==> guard: every committed .proptest-regressions file replays green"
# A renamed or deleted proptest suite silently orphans its regression file —
# the recorded counterexamples then never replay again and a revived bug
# rides in unnoticed. Re-run the owning test target for every committed
# regressions file; an orphan fails loudly because the target no longer
# exists, and the proptest stand-in panics on a `cc` seed it cannot replay.
# (The full-suite `cargo test` above already replayed them once; this stage
# pins the file-to-target correspondence.)
find . -name '*.proptest-regressions' -not -path './target/*' | while read -r reg; do
  name=$(basename "$reg" .proptest-regressions)
  case "$reg" in
    ./tests/*)
      [ -f "./tests/$name.rs" ] \
        || { echo "orphaned regressions file (no tests/$name.rs): $reg"; exit 1; }
      cargo test -q --locked --test "$name" > /dev/null \
        || { echo "regressions replay failed for $reg"; exit 1; }
      ;;
    ./crates/*/tests/*)
      crate=${reg#./crates/}; crate=${crate%%/*}
      [ -f "./crates/$crate/tests/$name.rs" ] \
        || { echo "orphaned regressions file (no crates/$crate/tests/$name.rs): $reg"; exit 1; }
      cargo test -q --locked -p "psens-$crate" --test "$name" > /dev/null \
        || { echo "regressions replay failed for $reg"; exit 1; }
      ;;
    *)
      echo "regressions file in unexpected location: $reg"; exit 1
      ;;
  esac
done

echo "CI OK"

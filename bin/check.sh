#!/bin/sh
# Tier-1-adjacent gate: build, full test suite, audit artifacts and
# fault/telemetry/profiling smokes, then a seconds-long bench smoke
# that appends one row to BENCH_history.jsonl.  `bench --trend` is the
# one perf gate: it checks that row (positive ns/run, integer exact
# minor words/run) and hard-fails a regression against the robust
# median/MAD of earlier rows from the same host.  The gate is gated
# too: synthetic histories must pass and fail as specified, and two
# back-to-back smokes on this tree must record identical allocation.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== audit artifacts (golden set) =="
# every checked-in certificate must independently re-verify, and every
# checked-in flight recording must replay divergence-free — the
# serialization formats and replay semantics are load-bearing
# (regenerate with `make artifacts` after an intentional change)
found_golden=0
for f in test/golden/CERT_*.json; do
  [ -e "$f" ] || continue
  found_golden=1
  dune exec bin/bbng_cli.exe -- verify "$f"
done
for f in test/golden/DYN_*.jsonl; do
  [ -e "$f" ] || continue
  found_golden=1
  dune exec bin/bbng_cli.exe -- replay "$f"
done
if [ "$found_golden" = 0 ]; then
  echo "check: no golden artifacts found (run 'make artifacts')"
  exit 1
fi

echo "== CSR engine vs legacy oracle on golden census graphs =="
# the flat CSR BFS/iFUB-diameter engine must agree with the retained
# adjacency-walking walker on every equilibrium graph named by the
# committed census artifacts — a kernel regression fails here even if
# it slips past the unit suite's random graphs
found_census=0
for f in test/golden/CENSUS_*.jsonl; do
  [ -e "$f" ] || continue
  found_census=1
  dune exec bench/main.exe -- --csr-oracle "$f"
done
if [ "$found_census" = 0 ]; then
  echo "check: no golden census artifacts for the CSR oracle"
  exit 1
fi

echo "== rows engine vs overlay oracle (bench engines) =="
# both pricing engines are exact, so every engines cell must find the
# identical moves under either: the bounded level-bitset kernel, int
# rows on deep circulants, the binary tree's disconnected prefixes and
# a random MAX profile.  The experiment exits non-zero on any
# disagreement; its report stays under _build/
engdir=_build/engines_stage
rm -rf "$engdir"
mkdir -p "$engdir"
root=$(pwd)
( cd "$engdir" && "$root/_build/default/bench/main.exe" engines > ENGINES.txt ) || {
  echo "check: rows and overlay engines disagree (see $engdir/ENGINES.txt)"
  exit 1
}

echo "== fault-matrix smoke =="
# out-of-process crash-safety: SIGKILL/raise/deadline injections must
# leave only artifacts that verify or replay cleanly, and malformed
# inputs must exit with their taxonomy codes (see bin/fault_smoke.sh)
sh bin/fault_smoke.sh

echo "== live telemetry: heartbeats, OpenMetrics snapshot, top =="
# a dynamics run with a fast ticker must leave a heartbeat-bearing
# report, a parseable OpenMetrics snapshot, and a recording the live
# viewer renders — format regressions in the telemetry layer fail here
mkdir -p _build
BBNG_HEARTBEAT_MS=1 dune exec bin/bbng_cli.exe -- dynamics -b 2,2,2,2,2,2,2,2 \
  --seed 3 --report _build/TELEMETRY.jsonl --metrics-out _build/TELEMETRY.prom \
  > /dev/null
dune exec bench/main.exe -- --validate-metrics _build/TELEMETRY.prom
grep -q progress.heartbeat _build/TELEMETRY.jsonl || {
  echo "check: no progress.heartbeat in the telemetry report"
  exit 1
}
dune exec bin/bbng_cli.exe -- top _build/TELEMETRY.jsonl --once --no-clear \
  > /dev/null
# a recording whose last line (the run.summary) is cut mid-line must
# still render.  The cut line is newline-terminated so the viewer
# consumes it instead of waiting for the rest: the shared line decoder
# must count it as one skip, not fail
size=$(wc -c < _build/TELEMETRY.jsonl)
last=$(tail -n 1 _build/TELEMETRY.jsonl | wc -c)
head -c $((size - last / 2)) _build/TELEMETRY.jsonl > _build/TELEMETRY.torn.jsonl
echo >> _build/TELEMETRY.torn.jsonl
dune exec bin/bbng_cli.exe -- top _build/TELEMETRY.torn.jsonl --once --no-clear \
  > _build/TELEMETRY.torn.out || {
  echo "check: top failed on a torn recording"
  exit 1
}
grep -q "(1 unparsed)" _build/TELEMETRY.torn.out || {
  echo "check: top did not skip the torn line"
  exit 1
}

echo "== profiling: live --profile and offline flame agree =="
# a recorded dynamics run must profile identically live (--profile) and
# offline (flame on the report's span.rollup events), both carrying the
# known hot call path, and the allocation flavor must ride along
mkdir -p _build
dune exec bin/bbng_cli.exe -- dynamics -b 2,2,2,2,2,2,2,2 --seed 3 \
  --report _build/PROF.jsonl --profile _build/PROF.folded > /dev/null
grep -q "^dynamics.run;dynamics.select_move " _build/PROF.folded || {
  echo "check: live profile lost the dynamics call path"
  exit 1
}
[ -s _build/PROF.alloc.folded ] || {
  echo "check: no allocation-flavor folded stacks"
  exit 1
}
dune exec bin/bbng_cli.exe -- flame _build/PROF.jsonl -o _build/PROF.offline.folded
cmp -s _build/PROF.folded _build/PROF.offline.folded || {
  echo "check: offline flame disagrees with the live profile"
  exit 1
}

# the census closes one span per certified player: its report must
# carry them as a handful of span.rollup lines (O(paths), not one line
# per close) that still flame exactly as the live profile
dune exec bin/bbng_cli.exe -- census -b 1,1,1,1,1,1 \
  --report _build/PROFC.jsonl --profile _build/PROFC.folded > /dev/null
dune exec bin/bbng_cli.exe -- flame _build/PROFC.jsonl -o _build/PROFC.offline.folded
cmp -s _build/PROFC.folded _build/PROFC.offline.folded || {
  echo "check: census offline flame disagrees with the live profile"
  exit 1
}
if grep -q '"event":"span"' _build/PROFC.jsonl; then
  echo "check: census report holds per-close span events"
  exit 1
fi
[ "$(wc -l < _build/PROFC.jsonl)" -lt 20 ] || {
  echo "check: census report has $(wc -l < _build/PROFC.jsonl) lines, expected < 20"
  exit 1
}

echo "== bench trend self-test (synthetic history) =="
# the gate itself is gated: a steady synthetic history must pass, an
# injected 2.5x slowdown must exit non-zero, and the same slowdown
# measured against another host's rows must not gate at all
mkdir -p _build
selftest_row() { # HOST NS
  printf '{"ts":"t","report":"selftest","host":"%s","results":[{"name":"bbng/x","ns_per_run":%s,"minor_words_per_run":500,"r_square_time":0.99}],"counters_digest":"d"}\n' "$1" "$2"
}
: > _build/TREND_selftest.jsonl
: > _build/TREND_otherhost.jsonl
for ns in 1000 1010 990 1005; do
  selftest_row host-a "$ns" >> _build/TREND_selftest.jsonl
  selftest_row host-b "$ns" >> _build/TREND_otherhost.jsonl
done
dune exec bench/main.exe -- --trend _build/TREND_selftest.jsonl > /dev/null || {
  echo "check: trend flagged a steady synthetic history"
  exit 1
}
selftest_row host-a 2500 >> _build/TREND_selftest.jsonl
if dune exec bench/main.exe -- --trend _build/TREND_selftest.jsonl > /dev/null; then
  echo "check: trend missed an injected 2.5x slowdown"
  exit 1
fi
selftest_row host-a 2500 >> _build/TREND_otherhost.jsonl
dune exec bench/main.exe -- --trend _build/TREND_otherhost.jsonl > /dev/null || {
  echo "check: trend gated against another host's rows"
  exit 1
}

echo "== bench smoke =="
dune exec bench/main.exe -- --smoke

echo "== bench trend vs recorded history =="
# the smoke run above appended to BENCH_history.jsonl; gate the latest
# run against the robust median/MAD of the recorded trajectory.  The
# gate is depth-aware (bench/trend.ml): a regression hard-fails once a
# benchmark has >=5 recorded points from this host, and is a warning
# below that; rows from other hosts are listed but never gate.
dune exec bench/main.exe -- --trend

echo "== run ledger: index, list, diff, injected regression =="
# two consecutive bench smoke runs on the unchanged tree must index
# into the same ledger, record identical exact minor words and diff
# green; a synthetic 2.5x metric regression and a synthetic census
# count regression must make `runs diff` exit non-zero.  The smokes run
# in a scratch dir so their history rows don't touch the repo's record.
cli=_build/default/bin/bbng_cli.exe
bench=_build/default/bench/main.exe
ledir=_build/ledger_stage
rm -rf "$ledir"
mkdir -p "$ledir"
root=$(pwd)
( cd "$ledir" && BBNG_LEDGER=CHECK_ledger.jsonl "$root/$bench" --smoke > /dev/null )
( cd "$ledir" && BBNG_LEDGER=CHECK_ledger.jsonl "$root/$bench" --smoke > /dev/null )
[ "$("$cli" runs list --ledger "$ledir/CHECK_ledger.jsonl" --porcelain | wc -l)" = 2 ] || {
  echo "check: expected 2 indexed bench runs in the ledger"
  exit 1
}
# allocation is counted, not fitted: the same tree allocates the same
# words per run in every process, to the word
words() {
  sed -n "$1p" "$ledir/CHECK_ledger.jsonl" \
    | grep -o '"bench\.[^"]*\.minor_words_per_run":[^,}]*'
}
[ -n "$(words 1)" ] && [ "$(words 1)" = "$(words 2)" ] || {
  echo "check: two identical-tree smokes recorded different minor words"
  exit 1
}
# back-to-back same-machine smoke runs: a loose 100% threshold rides
# out the tiny-quota timing noise while still catching a real blowup
"$cli" runs diff --ledger "$ledir/CHECK_ledger.jsonl" --threshold 100 @-2 @-1 || {
  echo "check: runs diff flagged two identical-tree bench runs"
  exit 1
}
printf '%s\n' '{"schema":1,"run_id":"synthetic-a","ts":"2026-01-01T00:00:00Z","tool":"bench","subcommand":"bench:smoke","argv":[],"outcome":"ok","exit_code":0,"metrics":{"bench.bbng/x.ns_per_run":1000},"counters":{},"artifacts":[]}' > "$ledir/SYNTH_ledger.jsonl"
printf '%s\n' '{"schema":1,"run_id":"synthetic-b","ts":"2026-01-01T00:01:00Z","tool":"bench","subcommand":"bench:smoke","argv":[],"outcome":"ok","exit_code":0,"metrics":{"bench.bbng/x.ns_per_run":2500},"counters":{},"artifacts":[]}' >> "$ledir/SYNTH_ledger.jsonl"
if "$cli" runs diff --ledger "$ledir/SYNTH_ledger.jsonl" synthetic-a synthetic-b > /dev/null; then
  echo "check: runs diff missed an injected 2.5x metric regression"
  exit 1
fi
# "census" contains "ns": the timing floor must not reach census counts
printf '%s\n' '{"schema":1,"run_id":"synthetic-c","ts":"2026-01-01T00:02:00Z","tool":"bbng_cli","subcommand":"census","argv":[],"outcome":"ok","exit_code":0,"metrics":{"census.equilibria":40},"counters":{},"artifacts":[]}' >> "$ledir/SYNTH_ledger.jsonl"
printf '%s\n' '{"schema":1,"run_id":"synthetic-d","ts":"2026-01-01T00:03:00Z","tool":"bbng_cli","subcommand":"census","argv":[],"outcome":"ok","exit_code":0,"metrics":{"census.equilibria":90},"counters":{},"artifacts":[]}' >> "$ledir/SYNTH_ledger.jsonl"
rc=0
"$cli" runs diff --ledger "$ledir/SYNTH_ledger.jsonl" synthetic-c synthetic-d > /dev/null || rc=$?
[ "$rc" = 1 ] || {
  echo "check: runs diff exited $rc on a census.equilibria 40 -> 90 regression, expected 1"
  exit 1
}

echo "== census: kill+resume commits byte-identical artifacts =="
# the checkpointed census's core invariant, end to end: a SIGKILLed
# sharded run, resumed, must commit the exact bytes of an uninterrupted
# one; and the committed golden census must still validate read-only
cendir=_build/census_stage
rm -rf "$cendir"
mkdir -p "$cendir/fresh" "$cendir/killed"
root=$(pwd)
( cd "$cendir/fresh" && "$root/$cli" census -b 1,1,1,1,1 --shard-size 64 \
    --out CEN.jsonl > /dev/null )
rc=0
( cd "$cendir/killed" && "$root/$cli" census -b 1,1,1,1,1 --shard-size 64 \
    --out CEN.jsonl --fault census.checkpoint@kill@3 ) > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || {
  echo "check: census kill expected exit 137, got $rc"
  exit 1
}
( cd "$cendir/killed" && "$root/$cli" census --resume CEN.jsonl > /dev/null )
cmp -s "$cendir/fresh/CEN.jsonl" "$cendir/killed/CEN.jsonl" || {
  echo "check: kill+resume census artifact differs from the fresh run"
  exit 1
}
for f in test/golden/CENSUS_*.jsonl; do
  [ -e "$f" ] || continue
  "$cli" census --resume "$f" > /dev/null || {
    echo "check: golden census $f no longer validates"
    exit 1
  }
done

echo "check: all green"

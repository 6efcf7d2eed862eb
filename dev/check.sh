#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
#   ./dev/check.sh
# Runs the build, the full test suite, the static analyzer (suite +
# examples must lint clean; the ill-formed suite must produce its
# annotated codes), a smoke run of the parallel engine (2 worker
# domains, lint gate on) over the benchmark suite, the
# daemon gates (warm cache, restart, kill -9 crash recovery), and the
# chaos gates (seeded faults at every injection site must never move
# a verdict or kill the daemon).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== daenerys lint (suite + examples; fails on any error) =="
dune exec bin/daenerys.exe -- lint --stats

echo "== daenerys lint --ill-formed (negative-suite expectations) =="
dune exec bin/daenerys.exe -- lint --ill-formed

echo "== daenerys suite --lint -j 2 (smoke) =="
dune exec bin/daenerys.exe -- suite --lint -j 2 --stats

echo "== surface (.hl) gate: parse + lint + verify every examples/*.hl =="
for f in examples/*.hl; do
  case "$f" in
    examples/bad_swap.hl)
      # negative program: must parse, lint clean, and FAIL verification
      dune exec bin/daenerys.exe -- lint "$f"
      if dune exec bin/daenerys.exe -- verify "$f" >/dev/null 2>&1; then
        echo "FAIL: $f verified but must fail" >&2; exit 1
      fi
      echo "$f: failed verification (as expected)"
      ;;
    examples/broken.hl)
      # ill-formed program: lint must report DA001 anchored at 6:12
      out=$(dune exec bin/daenerys.exe -- lint --json "$f" 2>&1) && {
        echo "FAIL: lint $f exited 0 but must report errors" >&2; exit 1; }
      for needle in '"DA001"' 'broken.hl' '"line": 6' '"col": 12'; do
        case "$out" in
          *"$needle"*) ;;
          *) echo "FAIL: lint --json $f missing $needle" >&2
             echo "$out" >&2; exit 1 ;;
        esac
      done
      echo "$f: DA001 at broken.hl:6:12 (as expected)"
      ;;
    examples/da018_div_zero.hl|examples/da021_false_ensures.hl)
      # absint error twins: lint must report the code, verify must fail
      code=$(case "$f" in *da018*) echo DA018;; *) echo DA021;; esac)
      out=$(dune exec bin/daenerys.exe -- lint "$f" 2>&1) && {
        echo "FAIL: lint $f exited 0 but must report errors" >&2; exit 1; }
      case "$out" in
        *"$code"*) ;;
        *) echo "FAIL: lint $f missing $code" >&2; echo "$out" >&2; exit 1 ;;
      esac
      if dune exec bin/daenerys.exe -- verify "$f" >/dev/null 2>&1; then
        echo "FAIL: $f verified but must fail" >&2; exit 1
      fi
      echo "$f: $code + failed verification (as expected)"
      ;;
    examples/da020_contradictory.hl)
      # contradictory requires: DA020 as an error, span-anchored at the
      # clause (the verifier "succeeds" vacuously — exactly the trap
      # the diagnostic is for)
      out=$(dune exec bin/daenerys.exe -- lint --json "$f" 2>&1) && {
        echo "FAIL: lint $f exited 0 but must report errors" >&2; exit 1; }
      for needle in '"DA020"' 'da020_contradictory.hl' '"line": 8' '"col": 12'; do
        case "$out" in
          *"$needle"*) ;;
          *) echo "FAIL: lint --json $f missing $needle" >&2
             echo "$out" >&2; exit 1 ;;
        esac
      done
      echo "$f: DA020 at da020_contradictory.hl:8:12 (as expected)"
      ;;
    examples/lock_noinv.hl)
      # concurrency negative: the spinlock without its invariant is
      # well-formed (lints clean) but the atomic has nothing to open,
      # so verification must fail
      dune exec bin/daenerys.exe -- lint "$f"
      if dune exec bin/daenerys.exe -- verify "$f" >/dev/null 2>&1; then
        echo "FAIL: $f verified but must fail" >&2; exit 1
      fi
      echo "$f: failed verification (as expected)"
      ;;
    examples/da027_racy_par.hl)
      # racy par branch: DA027 is a warning (lint still exits 0), and
      # the branch can prove no permission, so verification must fail
      out=$(dune exec bin/daenerys.exe -- lint "$f" 2>&1) || {
        echo "FAIL: lint $f must exit 0 (DA027 is a warning)" >&2
        echo "$out" >&2; exit 1; }
      case "$out" in
        *DA027*) ;;
        *) echo "FAIL: lint $f missing DA027" >&2; echo "$out" >&2; exit 1 ;;
      esac
      if dune exec bin/daenerys.exe -- verify "$f" >/dev/null 2>&1; then
        echo "FAIL: $f verified but must fail" >&2; exit 1
      fi
      echo "$f: DA027 warning + failed verification (as expected)"
      ;;
    examples/da026_nested_atomic.hl|examples/da028_unstable_inv.hl)
      # concurrency error twins: lint must report the code, verify
      # must fail (the executor raises the same diagnostic)
      code=$(case "$f" in *da026*) echo DA026;; *) echo DA028;; esac)
      out=$(dune exec bin/daenerys.exe -- lint "$f" 2>&1) && {
        echo "FAIL: lint $f exited 0 but must report errors" >&2; exit 1; }
      case "$out" in
        *"$code"*) ;;
        *) echo "FAIL: lint $f missing $code" >&2; echo "$out" >&2; exit 1 ;;
      esac
      if dune exec bin/daenerys.exe -- verify "$f" >/dev/null 2>&1; then
        echo "FAIL: $f verified but must fail" >&2; exit 1
      fi
      echo "$f: $code + failed verification (as expected)"
      ;;
    *)
      # positive twins: must lint clean and verify
      dune exec bin/daenerys.exe -- lint "$f"
      dune exec bin/daenerys.exe -- verify "$f"
      ;;
  esac
done

echo "== concurrency gate: verdicts identical under seeds 1/2/3 =="
# The scheduler seed permutes par-branch exploration order; verdicts
# must not depend on it. Positives stay verified and negatives keep
# failing under every seed.
for f in examples/spinlock.hl examples/ticket_lock.hl examples/treiber.hl; do
  for s in 1 2 3; do
    dune exec bin/daenerys.exe -- verify "$f" --seed "$s" >/dev/null || {
      echo "FAIL: $f must verify under --seed $s" >&2; exit 1; }
  done
  echo "$f: verified under seeds 1/2/3"
done
for f in examples/lock_noinv.hl examples/da027_racy_par.hl; do
  for s in 1 2 3; do
    if dune exec bin/daenerys.exe -- verify "$f" --seed "$s" >/dev/null 2>&1; then
      echo "FAIL: $f must fail under --seed $s" >&2; exit 1
    fi
  done
  echo "$f: failed under seeds 1/2/3 (as expected)"
done

echo "== chaos gate: session+cache faults must not move any verdict =="
# Session faults force the incremental-session fallback path, which is
# absorbed, so the suite must still exit 0 with every verdict intact.
# The CLI has no cache tier, so the cache fault never fires here; cache
# faults are exercised by the daemon chaos gate below.
dune exec bin/daenerys.exe -- suite --faults "session=1,cache=0.5,seed=7" -j 2

echo "== chaos gate: solver/pool faults may degrade but never flip =="
# Injected solver/pool crashes turn verdicts into 'crashed' (exit 2,
# "the verifier gave up"); what they must never do is flip an entry to
# the wrong verdict (exit 1).
if dune exec bin/daenerys.exe -- suite --faults "solver=0.2,pool=0.2,seed=11" -j 4; then
  :  # clean run: every fault landed on a retried/absorbed path
else
  st=$?
  if [ "$st" -ne 2 ]; then
    echo "FAIL: chaos suite exited $st (a fault flipped a verdict)" >&2
    exit 1
  fi
  echo "(verifier gave up on some entries under faults — expected)"
fi

echo "== daemon gate: serve + client, warm cache >=10x, restart reuses disk =="
DAE=./_build/default/bin/daenerys.exe
TMPD=$(mktemp -d)
SOCK="$TMPD/daenerys.sock"
CACHE="$TMPD/cache"
SRV=""
trap '[ -n "$SRV" ] && kill "$SRV" 2>/dev/null; rm -rf "$TMPD"' EXIT

start_daemon() {
  "$DAE" serve --socket "$SOCK" -j 2 --cache-dir "$CACHE" &
  SRV=$!
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "FAIL: daemon did not bind $SOCK" >&2; exit 1; }
    sleep 0.05
  done
}

stop_daemon() {
  "$DAE" client --socket "$SOCK" --shutdown >/dev/null
  wait "$SRV"
  SRV=""
}

# Daemon-side verification time (sums the per-request wall_ms of the
# engine reports, so client process startup doesn't pollute the ratio).
sum_wall_ms() {
  grep -o '"wall_ms":[0-9.]*' | awk -F: '{ s += $2 } END { printf "%.3f", s }'
}
verdicts() {
  grep -o '"entry":"[^"]*","expect_fail":[a-z]*,"status":"[^"]*"'
}

start_daemon
cold=$("$DAE" client --socket "$SOCK" --suite --json)
warm=$("$DAE" client --socket "$SOCK" --suite --json)
cold_ms=$(echo "$cold" | sum_wall_ms)
warm_ms=$(echo "$warm" | sum_wall_ms)
if [ "$(echo "$cold" | verdicts)" != "$(echo "$warm" | verdicts)" ]; then
  echo "FAIL: warm-cache verdicts differ from cold verdicts" >&2; exit 1
fi
awk -v c="$cold_ms" -v w="$warm_ms" 'BEGIN { exit !(c >= 10 * w) }' || {
  echo "FAIL: warm suite not >=10x faster (cold ${cold_ms}ms, warm ${warm_ms}ms)" >&2
  exit 1
}
echo "warm cache: ${cold_ms}ms cold -> ${warm_ms}ms warm, verdicts identical"

# A seeded request is a distinct verdict-cache key (never served from
# the seed-0 entries) but must produce the very same verdicts.
seeded=$("$DAE" client --socket "$SOCK" --suite --seed 5 --json)
if [ "$(echo "$cold" | verdicts)" != "$(echo "$seeded" | verdicts)" ]; then
  echo "FAIL: --seed 5 verdicts differ from seed-0 verdicts" >&2; exit 1
fi
echo "seeded suite (--seed 5): verdicts identical to seed 0"

# suite, verify and client share one options term (--lint, --no-absint,
# --seed): the same flags must give the same verdicts on the local and
# the daemon path.
local_opts=$("$DAE" suite --lint --no-absint --seed 5 --json)
daemon_opts=$("$DAE" client --socket "$SOCK" --suite --lint --no-absint --seed 5 --json)
if [ "$(echo "$local_opts" | verdicts)" != "$(echo "$daemon_opts" | verdicts)" ]; then
  echo "FAIL: client --lint --no-absint --seed 5 verdicts differ from local suite" >&2
  exit 1
fi
echo "options (--lint --no-absint --seed 5): daemon verdicts identical to local suite"

# A program with no procedures (an empty file) is vacuously verified:
# the CLI and the daemon must answer it (exit 0), never crash on it.
: > "$TMPD/empty.hl"
"$DAE" verify "$TMPD/empty.hl" >/dev/null || {
  echo "FAIL: verify of a zero-procedure file exited $?" >&2; exit 1; }
"$DAE" client --socket "$SOCK" "$TMPD/empty.hl" >/dev/null || {
  echo "FAIL: client verify of a zero-procedure file exited $?" >&2; exit 1; }
crashes=$("$DAE" client --socket "$SOCK" --stats | grep -o '"crashes":[0-9]*' | head -1 | cut -d: -f2)
if [ "$crashes" != 0 ]; then
  echo "FAIL: zero-procedure file crashed the daemon (crashes=${crashes:-missing})" >&2
  exit 1
fi
echo "zero procedures: vacuously verified by the CLI and the daemon, no crash"

# The verdict cache keys an inline program on its file name as well as
# its text, and a hit replays the cold reply: one source with lint
# findings sent as two paths, twice each, must name only its own path,
# and each warm reply must equal its cold one apart from the ms column.
mkdir -p "$TMPD/a" "$TMPD/b"
cp examples/da018_div_zero.hl "$TMPD/a/w.hl"
cp examples/da018_div_zero.hl "$TMPD/b/w.hl"
lint_client() {
  st=0
  reply=$("$DAE" client --socket "$SOCK" --lint "$1") || st=$?
  [ "$st" -eq 1 ] || {
    echo "FAIL: client --lint $1 exited $st, expected 1 (FAILED)" >&2; exit 1; }
  echo "$reply" | sed 's/  *[0-9][0-9.]*ms$//'
}
for p in a b; do
  own="$TMPD/$p/w.hl"
  other="$TMPD/$( [ "$p" = a ] && echo b || echo a )/w.hl"
  first=$(lint_client "$own")
  again=$(lint_client "$own")
  for reply in "$first" "$again"; do
    case "$reply" in *"$own"*) ;; *)
      echo "FAIL: reply for $own does not name it" >&2; echo "$reply" >&2; exit 1 ;;
    esac
    case "$reply" in *"$other"*)
      echo "FAIL: reply for $own names $other" >&2; echo "$reply" >&2; exit 1 ;;
    esac
  done
  [ "$first" = "$again" ] || {
    echo "FAIL: warm reply for $own differs from its cold reply" >&2
    echo "$first" >&2; echo "$again" >&2; exit 1; }
done
echo "file names: one source under two paths, each reply names only its own path, warm = cold"

stop_daemon
start_daemon  # same cache dir: the disk tier must survive the restart
restart=$("$DAE" client --socket "$SOCK" --suite --json)
if [ "$(echo "$cold" | verdicts)" != "$(echo "$restart" | verdicts)" ]; then
  echo "FAIL: post-restart verdicts differ from cold verdicts" >&2; exit 1
fi
stats=$("$DAE" client --socket "$SOCK" --stats)
disk_hits=$(echo "$stats" | grep -o '"disk_hits":[0-9]*' | head -1 | cut -d: -f2)
if [ -z "$disk_hits" ] || [ "$disk_hits" -eq 0 ]; then
  echo "FAIL: restarted daemon served no disk-cache hits" >&2
  echo "$stats" >&2
  exit 1
fi
echo "restart: $disk_hits requests answered from the disk cache"
stop_daemon
rm -rf "$TMPD"
trap - EXIT

echo "== crash-recovery gate: kill -9, wreckage absorbed, verdicts intact =="
# Populate the disk cache, kill the daemon without any chance to clean
# up, fabricate the torn-write wreckage a real crash can leave behind,
# and restart over the same directory: recovery must quarantine the
# wreckage, the suite must answer from disk with identical verdicts,
# and the recovery counters must be visible in stats.
TMPD=$(mktemp -d)
SOCK="$TMPD/daenerys.sock"
CACHE="$TMPD/cache"
SRV=""
trap '[ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null; rm -rf "$TMPD"' EXIT

start_daemon
before=$("$DAE" client --socket "$SOCK" --suite --json)
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""
# kill -9 never runs the cleanup path: the socket file must still be
# there for the restart to displace as stale.
[ -S "$SOCK" ] || { echo "FAIL: kill -9 should leave the socket file" >&2; exit 1; }
# Torn entry (rename happened, bytes are garbage) + a temp file from a
# long-dead writer pid (mid-publication crash).
printf 'DAEVC1\ngarbage' > "$CACHE/$(printf 'a%.0s' $(seq 32)).vc"
printf 'half-written' > "$CACHE/.tmp.999999999.0"
start_daemon
after=$("$DAE" client --socket "$SOCK" --suite --json)
if [ "$(echo "$before" | verdicts)" != "$(echo "$after" | verdicts)" ]; then
  echo "FAIL: post-crash verdicts differ from pre-crash verdicts" >&2; exit 1
fi
stats=$("$DAE" client --socket "$SOCK" --stats)
for key in disk_hits recovered_tmp recovered_torn; do
  val=$(echo "$stats" | grep -o "\"$key\":[0-9]*" | head -1 | cut -d: -f2)
  if [ -z "$val" ] || [ "$val" -eq 0 ]; then
    echo "FAIL: stats $key is '${val:-missing}' after crash recovery" >&2
    echo "$stats" >&2
    exit 1
  fi
done
echo "crash recovery: wreckage absorbed, verdicts identical, disk cache reused"
stop_daemon
rm -rf "$TMPD"
trap - EXIT

echo "== chaos gate: supervised daemon under worker/stall/disk/cache/socket faults =="
# Fixed-seed faults at every supervisor-facing site at once: workers
# crash, workers stall past their watchdog budget, disk publishes tear,
# cache loads corrupt, sockets reset. The daemon must survive the whole
# suite (no process death), retrying clients must converge, and the
# verdict manifest must be byte-identical to a fault-free run.
TMPD=$(mktemp -d)
SOCK="$TMPD/daenerys.sock"
CACHE="$TMPD/cache"
SRV=""
trap '[ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null; rm -rf "$TMPD"' EXIT

start_daemon
baseline=$("$DAE" client --socket "$SOCK" --suite --json)
stop_daemon
rm -rf "$CACHE"

start_chaos_daemon() {
  "$DAE" serve --socket "$SOCK" -j 2 --cache-dir "$CACHE" \
    --watchdog-ms 150 --watchdog-grace 1.0 \
    --faults "worker=0.05,stall=0.02,disk=0.2,cache=0.2,socket=0.1,seed=13" &
  SRV=$!
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "FAIL: chaos daemon did not bind" >&2; exit 1; }
    sleep 0.05
  done
}
start_chaos_daemon
for round in 1 2 3; do
  chaos=$("$DAE" client --socket "$SOCK" --retry 100 --suite --json)
  if [ "$(echo "$baseline" | verdicts)" != "$(echo "$chaos" | verdicts)" ]; then
    echo "FAIL: chaos round $round moved a verdict" >&2; exit 1
  fi
  kill -0 "$SRV" 2>/dev/null || {
    echo "FAIL: daemon died during chaos round $round" >&2; exit 1; }
done
stats=$("$DAE" client --socket "$SOCK" --retry 100 --stats)
for key in crashes respawns; do
  echo "$stats" | grep -q "\"$key\":" || {
    echo "FAIL: chaos stats missing $key" >&2; echo "$stats" >&2; exit 1; }
done
crashes=$(echo "$stats" | grep -o '"crashes":[0-9]*' | head -1 | cut -d: -f2)
stalls=$(echo "$stats" | grep -o '"stalls":[0-9]*' | head -1 | cut -d: -f2)
echo "chaos: 3 suite rounds byte-identical to fault-free (worker crashes=$crashes stalls=$stalls, daemon alive)"
"$DAE" client --socket "$SOCK" --retry 100 --shutdown >/dev/null
wait "$SRV" || { echo "FAIL: chaos daemon exited non-zero" >&2; exit 1; }
SRV=""
rm -rf "$TMPD"
trap - EXIT

echo "== bench smoke: smt_incremental + budget_overhead + absint_overhead + conc_suite + serve --quick =="
dune exec bench/main.exe -- smt_incremental --quick
dune exec bench/main.exe -- budget_overhead --quick
dune exec bench/main.exe -- absint_overhead --quick
dune exec bench/main.exe -- conc_suite --quick
dune exec bench/main.exe -- serve_throughput --quick

echo "== corpus gate: fixed-seed synthetic corpus, golden verdicts + throughput =="
# Re-verifies the quick corpus (fixed seed) twice — with the abstract
# pre-discharge on (default) and off (--no-absint). Both runs must
# match the golden manifest and throughput tolerance, and their
# verdict manifests must be byte-identical: the absint pass may only
# short-circuit Valid verdicts, never move one.
out_on=$(dune exec bench/main.exe -- corpus_throughput --quick --check) \
  || { echo "$out_on"; exit 1; }
echo "$out_on"
out_off=$(dune exec bench/main.exe -- corpus_throughput --quick --check --no-absint) \
  || { echo "$out_off"; exit 1; }
echo "$out_off"
m_on=$(echo "$out_on" | grep -o '[0-9a-f]\{32\}' | head -1)
m_off=$(echo "$out_off" | grep -o '[0-9a-f]\{32\}' | head -1)
if [ -z "$m_on" ] || [ "$m_on" != "$m_off" ]; then
  echo "FAIL: corpus manifest moved under --no-absint ($m_on vs $m_off)" >&2
  exit 1
fi
echo "absint invariance: manifest $m_on identical with the pass on and off"

echo "tier-1 gate: OK"

#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
#   ./dev/check.sh
# Runs the build, prints the non-blank .ml line count under lib/ and
# bin/ (the figure ROADMAP's "net line drop" gates quote), then runs
# the full test suite, the static analyzer (suite + examples must lint
# clean; the ill-formed suite must produce its annotated codes), a smoke run of the parallel engine (2 worker
# domains, lint gate on) over the benchmark suite, the session
# fallback gate (reasons sum, lemma store live), the daemon gates
# (warm cache, restart, kill -9 crash recovery), the chaos gates
# (seeded faults at every injection site must never move a verdict or
# kill the daemon), a smoke run of the paper's bench targets, and a
# guard that no gate rewrote a tracked file. The corpus verdict
# manifests are pinned by `dune runtest` (engine corpus-golden).
set -eu

cd "$(dirname "$0")/.."

# The tracked files' status plus a checksum of their diff, so that a
# gate rewriting an already-modified file is caught as well.
tracked_state() {
  git status --porcelain --untracked-files=no
  git diff HEAD | cksum
}
tree_before=""
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  tree_before=$(tracked_state)
fi

echo "== dune build =="
dune build

echo "== size: non-blank .ml lines under lib/ and bin/ (informational) =="
find lib bin -name '*.ml' -exec cat {} + | grep -c '[^[:space:]]'

echo "== dune runtest =="
dune runtest

echo "== daenerys lint (suite + examples; fails on any error) =="
dune exec bin/daenerys.exe -- lint --stats

echo "== daenerys lint --ill-formed (negative-suite expectations) =="
dune exec bin/daenerys.exe -- lint --ill-formed

echo "== daenerys suite --lint -j 2 (smoke) =="
dune exec bin/daenerys.exe -- suite --lint -j 2 --stats

echo "== fallback gate: suite --json on one domain, reasons + lemma store + simplex =="
# Every session fallback counts under exactly one fallback_* reason, so
# the reasons sum to session_fallbacks; the warm-started simplex must
# not send branch-and-bound or the combination loop drifting into their
# fuel limits. Both hold with the abstract pre-discharge on and off
# (off, the session decides every linear goal itself). The session
# lemma store is live in the shipped binary: later fallbacks are seeded
# with conflict cores that earlier fallbacks of the same procedure
# learned; and the equality probe shortcut (a live feasible assignment
# refuting a pair) is live too.
stat_of() {
  echo "$suite_json" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}
# check_fallbacks RUN: the reasons sum and the fuel limits on $suite_json.
check_fallbacks() {
  fallbacks=$(stat_of session_fallbacks)
  reasons=0
  for r in fault nonlit_goal untrusted_ctx held_back ctx_neq goal_neqs inconclusive; do
    v=$(stat_of "fallback_$r")
    [ -n "$v" ] || { echo "FAIL: $1 --json has no fallback_$r" >&2; exit 1; }
    reasons=$((reasons + v))
  done
  if [ -z "$fallbacks" ] || [ "$reasons" -ne "$fallbacks" ]; then
    echo "FAIL: $1: fallback reasons sum to $reasons, session_fallbacks=${fallbacks:-missing}" >&2
    exit 1
  fi
  for f in fuel_simplex fuel_combination; do
    v=$(stat_of "$f")
    if [ -z "$v" ] || [ "$v" -ne 0 ]; then
      echo "FAIL: $f is '${v:-missing}' on $1, expected 0" >&2
      exit 1
    fi
  done
  echo "$1: $fallbacks fallbacks, all attributed to a reason; fuel_simplex=0 fuel_combination=0"
}
suite_json=$(dune exec bin/daenerys.exe -- suite -j 1 --json)
check_fallbacks "suite -j 1"
seeded=$(stat_of lemmas_seeded)
if [ -z "$seeded" ] || [ "$seeded" -eq 0 ]; then
  echo "FAIL: lemmas_seeded is '${seeded:-missing}': the lemma store is not live" >&2
  exit 1
fi
witnessed=$(stat_of lia_eq_witnessed)
if [ -z "$witnessed" ] || [ "$witnessed" -eq 0 ]; then
  echo "FAIL: lia_eq_witnessed is '${witnessed:-missing}': the probe shortcut is not live" >&2
  exit 1
fi
echo "lemmas_seeded=$seeded lia_eq_witnessed=$witnessed"
suite_json=$(dune exec bin/daenerys.exe -- suite -j 1 --json --no-absint)
check_fallbacks "suite -j 1 --no-absint"
# The session's case splitting is live: max3 (path conditions on
# lifted ite encodings, a disjunctive postcondition) and spinlock
# (context disequalities) are decided without one fallback.
for f in examples/max3.hl examples/spinlock.hl; do
  n=$(dune exec bin/daenerys.exe -- verify --json "$f" |
    grep -o '"session_fallbacks":[0-9]*' | head -1 | cut -d: -f2)
  if [ "${n:-missing}" != 0 ]; then
    echo "FAIL: verify --json $f: session_fallbacks=${n:-missing}, expected 0" >&2
    exit 1
  fi
done
echo "max3, spinlock: session_fallbacks=0"

echo "== surface (.hl) gate: parse + lint + verify every examples/*.hl =="
# must_fail FILE [FLAG...]: verify must not accept FILE.
must_fail() {
  if dune exec bin/daenerys.exe -- verify "$@" >/dev/null 2>&1; then
    echo "FAIL: $* verified but must fail" >&2; exit 1
  fi
}
# lint_has FILE [--json] NEEDLE...: lint must exit non-zero (errors)
# and print every needle.
lint_has() {
  file=$1; shift
  json=""
  [ "$1" = --json ] && { json=--json; shift; }
  out=$(dune exec bin/daenerys.exe -- lint $json "$file" 2>&1) && {
    echo "FAIL: lint $file exited 0 but must report errors" >&2; exit 1; }
  for needle in "$@"; do
    case "$out" in
      *"$needle"*) ;;
      *) echo "FAIL: lint $json $file missing $needle" >&2
         echo "$out" >&2; exit 1 ;;
    esac
  done
}
for f in examples/*.hl; do
  case "$f" in
    examples/bad_swap.hl|examples/lock_noinv.hl)
      # negative programs: must parse and lint clean but FAIL
      # verification (lock_noinv is the spinlock without its
      # invariant: the atomic has nothing to open)
      dune exec bin/daenerys.exe -- lint "$f"
      must_fail "$f"
      echo "$f: failed verification (as expected)"
      ;;
    examples/broken.hl)
      # ill-formed program: lint must report DA001 anchored at 6:12
      lint_has "$f" --json '"DA001"' 'broken.hl' '"line": 6' '"col": 12'
      echo "$f: DA001 at broken.hl:6:12 (as expected)"
      ;;
    examples/da020_contradictory.hl)
      # contradictory requires: DA020 as an error, span-anchored at the
      # clause (the verifier "succeeds" vacuously — exactly the trap
      # the diagnostic is for)
      lint_has "$f" --json '"DA020"' 'da020_contradictory.hl' '"line": 8' \
        '"col": 12'
      echo "$f: DA020 at da020_contradictory.hl:8:12 (as expected)"
      ;;
    examples/da018_div_zero.hl|examples/da021_false_ensures.hl|\
    examples/da026_nested_atomic.hl|examples/da028_unstable_inv.hl)
      # error twins, absint (DA018/DA021) and concurrency (DA026/DA028,
      # which the executor raises too): lint must report the code named
      # by the file, verify must fail
      code=$(basename "$f" | cut -c1-5 | tr '[:lower:]' '[:upper:]')
      lint_has "$f" "$code"
      must_fail "$f"
      echo "$f: $code + failed verification (as expected)"
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
      must_fail "$f"
      echo "$f: DA027 warning + failed verification (as expected)"
      ;;
    *)
      # positive twins: must lint clean and verify
      dune exec bin/daenerys.exe -- lint "$f"
      dune exec bin/daenerys.exe -- verify "$f"
      ;;
  esac
done

echo "== integer refusal gate: out of range is refused once, never retried =="
# An integer that leaves the native range is a deterministic refusal
# (exit 2, resource-out): more budget cannot change it, so --retries
# must not re-run it, and it is counted once.
wrap_dir=$(mktemp -d)
echo 'procedure wrap() requires [true] ensures [4611686018427387903 + 1 < 0] { 0 }' \
  > "$wrap_dir/wrap.hl"
st=0
wrap_json=$(dune exec bin/daenerys.exe -- verify --retries 3 --json "$wrap_dir/wrap.hl") || st=$?
rm -rf "$wrap_dir"
wrap_stat() {
  echo "$wrap_json" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}
if [ "$st" -ne 2 ] || [ "$(wrap_stat retries)" != 0 ] \
   || [ "$(wrap_stat int_out_of_range)" != 1 ]; then
  echo "FAIL: wrap under --retries 3 exited $st with retries=$(wrap_stat retries)" \
    "int_out_of_range=$(wrap_stat int_out_of_range), expected 2, 0 and 1" >&2
  exit 1
fi
echo "wrap: refused once (retries=0, int_out_of_range=1)"

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
    must_fail "$f" --seed "$s"
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
# fresh_dir: a new scratch dir for one daemon gate's socket and cache;
# the trap kills a daemon left running and removes the current dir.
fresh_dir() {
  TMPD=$(mktemp -d)
  SOCK="$TMPD/daenerys.sock"
  CACHE="$TMPD/cache"
}
SRV=""
trap '[ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null; rm -rf "$TMPD"' EXIT
fresh_dir

# start_daemon [FLAG...]: serve on $SOCK over $CACHE, wait for the bind.
start_daemon() {
  "$DAE" serve --socket "$SOCK" -j 2 --cache-dir "$CACHE" "$@" &
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
# same_verdicts A B WHY: the --json reports A and B carry identical
# verdicts; otherwise fail with WHY.
same_verdicts() {
  [ "$(echo "$1" | verdicts)" = "$(echo "$2" | verdicts)" ] || {
    echo "FAIL: $3" >&2; exit 1; }
}

start_daemon
cold=$("$DAE" client --socket "$SOCK" --suite --json)
warm=$("$DAE" client --socket "$SOCK" --suite --json)
cold_ms=$(echo "$cold" | sum_wall_ms)
warm_ms=$(echo "$warm" | sum_wall_ms)
same_verdicts "$cold" "$warm" "warm-cache verdicts differ from cold verdicts"
awk -v c="$cold_ms" -v w="$warm_ms" 'BEGIN { exit !(c >= 10 * w) }' || {
  echo "FAIL: warm suite not >=10x faster (cold ${cold_ms}ms, warm ${warm_ms}ms)" >&2
  exit 1
}
echo "warm cache: ${cold_ms}ms cold -> ${warm_ms}ms warm, verdicts identical"

# A seeded request is a distinct verdict-cache key (never served from
# the seed-0 entries) but must produce the very same verdicts.
seeded=$("$DAE" client --socket "$SOCK" --suite --seed 5 --json)
same_verdicts "$cold" "$seeded" "--seed 5 verdicts differ from seed-0 verdicts"
echo "seeded suite (--seed 5): verdicts identical to seed 0"

# suite, verify and client share one options term (--lint, --no-absint,
# --seed): the same flags must give the same verdicts on the local and
# the daemon path.
local_opts=$("$DAE" suite --lint --no-absint --seed 5 --json)
daemon_opts=$("$DAE" client --socket "$SOCK" --suite --lint --no-absint --seed 5 --json)
same_verdicts "$local_opts" "$daemon_opts" \
  "client --lint --no-absint --seed 5 verdicts differ from local suite"
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
same_verdicts "$cold" "$restart" "post-restart verdicts differ from cold verdicts"
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

echo "== crash-recovery gate: kill -9, wreckage absorbed, verdicts intact =="
# Populate the disk cache, kill the daemon without any chance to clean
# up, fabricate the torn-write wreckage a real crash can leave behind,
# and restart over the same directory: recovery must quarantine the
# wreckage, the suite must answer from disk with identical verdicts,
# and the recovery counters must be visible in stats.
fresh_dir

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
same_verdicts "$before" "$after" \
  "post-crash verdicts differ from pre-crash verdicts"
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

echo "== chaos gate: supervised daemon under worker/stall/disk/cache/socket faults =="
# Fixed-seed faults at every supervisor-facing site at once: workers
# crash, workers stall past their watchdog budget, disk publishes tear,
# cache loads corrupt, sockets reset. The daemon must survive the whole
# suite (no process death), retrying clients must converge, and the
# verdict manifest must be byte-identical to a fault-free run.
fresh_dir

start_daemon
baseline=$("$DAE" client --socket "$SOCK" --suite --json)
stop_daemon
rm -rf "$CACHE"

start_daemon --watchdog-ms 150 --watchdog-grace 1.0 \
  --faults "worker=0.05,stall=0.02,disk=0.2,cache=0.2,socket=0.1,seed=13"
for round in 1 2 3; do
  chaos=$("$DAE" client --socket "$SOCK" --retry 100 --suite --json)
  same_verdicts "$baseline" "$chaos" "chaos round $round moved a verdict"
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

echo "== bench smoke: smt_incremental + budget_overhead + absint_overhead + conc_suite =="
dune exec bench/main.exe -- smt_incremental --quick
dune exec bench/main.exe -- budget_overhead --quick
dune exec bench/main.exe -- absint_overhead --quick
dune exec bench/main.exe -- conc_suite --quick

echo "== clean-tree guard: no gate rewrote a tracked file =="
if [ -z "$tree_before" ]; then
  echo "(not a git checkout: skipped)"
elif [ "$(tracked_state)" != "$tree_before" ]; then
  echo "FAIL: a gate modified tracked files; git status before and after:" >&2
  echo "$tree_before" >&2
  tracked_state >&2
  exit 1
else
  echo "tracked files unchanged"
fi

echo "tier-1 gate: OK"

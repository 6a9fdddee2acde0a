#!/usr/bin/env bash
# End-to-end CLI checks for the perf-trajectory tooling: exit-status
# contracts that the unit suite cannot see because they live in wx's
# cmdliner wiring — prof propagating the inner command's failure, the
# history append/show/gate loop on a real report, prof diff on real
# traces, the bench gates failing when they should (the
# WX_BENCH_*_HANDICAP hooks), broadcast's protocol and option surface,
# and verify-paper's claim lines against their golden copy. Run by dune
# (see test/dune): $1 = wx.exe, $2 = a committed wx-bench report, $3 =
# the pinned claim.check lines of `wx verify-paper --json`, $4 = the
# committed perf-trajectory ledger.
set -u

WX=$1
REPORT=$2
CLAIMS=$3
LEDGER=$4
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fails=0
check() { # check DESC EXPECTED_RC ACTUAL_RC
  if [ "$2" -ne "$3" ]; then
    echo "FAIL: $1 (expected exit $2, got $3)" >&2
    fails=$((fails + 1))
  else
    echo "ok: $1"
  fi
}

# ---- prof exit-status propagation (the wx prof exit bug) ----
"$WX" prof --out "$tmp/ok.trace" -- core 64 >"$tmp/ok.out" 2>&1
check "prof propagates inner success" 0 $?
grep -q "hottest spans" "$tmp/ok.out"
check "successful prof prints the span table" 0 $?

"$WX" prof --out "$tmp/bad.trace" -- core 63 >"$tmp/bad.out" 2>"$tmp/bad.err"
check "prof propagates inner failure (63 is not a power of two)" 1 $?
grep -q "hottest spans" "$tmp/bad.out" "$tmp/bad.err"
check "failed prof suppresses the span table" 1 $?
test -s "$tmp/bad.trace"
check "failed prof still writes the trace" 0 $?

"$WX" prof >/dev/null 2>&1
check "prof with no inner command is a usage error" 2 $?

# ---- prof diff ----
"$WX" prof --out "$tmp/a.trace" -- core 64 >/dev/null 2>&1
"$WX" prof --out "$tmp/b.trace" -- core 256 >/dev/null 2>&1
"$WX" prof diff "$tmp/a.trace" "$tmp/a.trace" >/dev/null 2>&1
check "prof diff of a trace against itself is clean" 0 $?
# core 256 spends about ten times core 64's self time (over 10 ms more): a
# real regression, which --soft reports without failing.
"$WX" prof diff "$tmp/a.trace" "$tmp/b.trace" >/dev/null 2>&1
check "prof diff flags a real self-time regression" 1 $?
"$WX" prof diff --soft "$tmp/a.trace" "$tmp/b.trace" >/dev/null 2>&1
check "prof diff --soft never fails on regressions" 0 $?
"$WX" prof diff "$tmp/a.trace" /dev/null >/dev/null 2>&1
check "prof diff on a non-trace exits 2" 2 $?

# ---- info answers on large graphs ----
"$WX" info path 30000 >/dev/null 2>&1
check "info on a 30000-vertex path exits 0" 0 $?

# ---- verify-paper claims are pinned byte for byte ----
# Every claim.check line (claim, instance, predicted, measured, holds) at
# the default seed. The closing metrics line is left out: its pruning
# counters vary run to run when jobs > 1.
"$WX" verify-paper --json 2>/dev/null | grep '"event":"claim.check"' >"$tmp/claims.ndjson"
cmp -s "$CLAIMS" "$tmp/claims.ndjson"
check "verify-paper claim lines match the golden copy" 0 $?
test "$(wc -l <"$CLAIMS")" -eq 202
check "the golden copy holds 202 claims" 0 $?

# ---- wx expansion output is pinned byte for byte ----
# The exact path (gnp 14, with witnesses) and the sampled path, whose βw
# runs the Gray walk on every drawn set. The sampled pin uses α = 0.25
# (draws of up to 15 vertices, ~0.2 s): at the default α the draws reach
# 22 vertices and the run takes ~20 s.
"$WX" expansion gnp 14 >"$tmp/exp_exact.out" 2>/dev/null
printf '%s\n' 'gnp (n = 14, α = 0.50)' \
  'β  = 0.7143 (exact)  witness {1, 2, 5, 8, 9, 10, 11}' \
  'βw = 0.5714 (exact)' \
  'βu = 0.0000 (exact)  witness {0, 1, 2, 3, 4, 5}' | cmp -s - "$tmp/exp_exact.out"
check "expansion gnp 14 matches its pinned output" 0 $?
"$WX" expansion cm-regular 60 --alpha 0.25 >"$tmp/exp_sampled.out" 2>/dev/null
printf '%s\n' 'cm-regular (n = 60, α = 0.25)' \
  'β  <= 2.2667 (witness certificate, 2000 samples)' \
  'βu <= 0.4667 (witness certificate)' \
  'βw <= 1.8667 (witness certificate)' | cmp -s - "$tmp/exp_sampled.out"
check "expansion cm-regular 60 --alpha 0.25 matches its pinned output" 0 $?

# ---- bench history ----
# The committed ledger holds lines written while the rate gate existed
# (they carry rate_per_s); they still decode, render and gate.
"$WX" bench history show --ledger "$LEDGER" >/dev/null 2>&1
check "history show on the committed ledger" 0 $?
"$WX" bench history gate --soft --ledger "$LEDGER" >/dev/null 2>&1
check "history gate --soft on the committed ledger" 0 $?

L="$tmp/ledger.ndjson"
"$WX" bench history append "$REPORT" --ledger "$L" >/dev/null 2>&1
check "history append creates the ledger" 0 $?
"$WX" bench history append "$REPORT" --ledger "$L" >/dev/null 2>&1
check "history re-append dedups" 0 $?
test "$(wc -l <"$L")" -eq 1
check "one commit, one ledger line" 0 $?

"$WX" bench history show --ledger "$L" >/dev/null 2>&1
check "history show" 0 $?
"$WX" bench history show --metric alloc -e e1 --ledger "$L" >/dev/null 2>&1
check "history show --metric alloc -e" 0 $?
"$WX" bench history show --metric rate --ledger "$L" >/dev/null 2>&1
check "history show has no rate metric (usage error)" 124 $?
"$WX" bench history gate --ledger "$L" >/dev/null 2>&1
check "history gate on a one-entry ledger is clean" 0 $?
"$WX" bench history gate --ledger "$tmp/absent.ndjson" >/dev/null 2>&1
check "history gate on a missing ledger exits 2" 2 $?
echo "not json" >>"$L"
"$WX" bench history gate --ledger "$L" >/dev/null 2>&1
check "history gate on a corrupt ledger exits 2" 2 $?

# --json keeps stdout pure NDJSON with a machine-readable verdict.
head -n 1 "$L" >"$L.clean"
"$WX" bench history gate --json --ledger "$L.clean" >"$tmp/gate.ndjson" 2>/dev/null
check "history gate --json" 0 $?
grep -q '"event":"history.verdict"' "$tmp/gate.ndjson" ||
  grep -q 'history.verdict' "$tmp/gate.ndjson"
check "gate --json emits history.verdict" 0 $?

"$WX" bench diff --json --soft "$REPORT" "$REPORT" >"$tmp/diff.ndjson" 2>/dev/null
check "bench diff --json --soft" 0 $?
grep -q 'bench.verdict' "$tmp/diff.ndjson"
check "diff --json emits bench.verdict" 0 $?

# ---- bench gate self-tests: the handicap hooks must fail the gates ----
rec() { # rec OUT [ENV=VALUE...] -- one quick e1 record
  local out=$1
  shift
  env "$@" "$WX" bench record -e e1 --quick --repeats 3 --out "$out" --force >/dev/null 2>&1
}
rec "$tmp/clean.json"
check "record clean e1" 0 $?
"$WX" bench record -e nope --quick --repeats 1 --out "$tmp/nope.json" >"$tmp/nope.out" 2>"$tmp/nope.err"
check "record of an unknown experiment exits 1" 1 $?
grep -q "e1" "$tmp/nope.err"
check "unknown-experiment error lists the valid ids" 0 $?
test ! -s "$tmp/nope.out"
check "unknown-experiment error prints nothing on stdout" 0 $?
rec "$tmp/slow.json" WX_BENCH_HANDICAP_MS=150
check "record e1 with a wall handicap" 0 $?
rec "$tmp/fat.json" WX_BENCH_ALLOC_HANDICAP_WORDS=200000
check "record e1 with an alloc handicap" 0 $?

"$WX" bench diff "$tmp/clean.json" "$tmp/slow.json" >/dev/null 2>&1
check "bench diff fails on the wall handicap" 1 $?
"$WX" bench diff --soft "$tmp/clean.json" "$tmp/slow.json" >/dev/null 2>&1
check "bench diff --soft reports it without failing" 0 $?
"$WX" bench diff --alloc-only "$tmp/clean.json" "$tmp/fat.json" >/dev/null 2>&1
check "bench diff --alloc-only fails on the alloc handicap" 1 $?

printf '{"schema":"\\uZZZZ"}\n' >"$tmp/bad.json"
"$WX" bench diff "$tmp/bad.json" "$tmp/bad.json" >/dev/null 2>&1
check "a report with a bad \\u escape is malformed (exit 2)" 2 $?

"$WX" bench diff --tolerance 0.1 "$tmp/clean.json" "$tmp/clean.json" >/dev/null 2>&1
check "bench diff has no --tolerance (usage error)" 124 $?
"$WX" bench diff --rate-only "$tmp/clean.json" "$tmp/slow.json" >/dev/null 2>&1
check "bench diff has no --rate-only (usage error)" 124 $?
"$WX" bench history gate --window 3 --ledger "$L.clean" >/dev/null 2>&1
check "history gate has no --window (usage error)" 124 $?

# ---- broadcast: one engine for every protocol ----
"$WX" broadcast grid 36 --protocol spokesmen --seeds 2 --json >"$tmp/bc.ndjson" 2>/dev/null
check "broadcast runs spokesmen-cast on the engine" 0 $?
grep -q '"event":"broadcast.summary","completed":2' "$tmp/bc.ndjson"
check "spokesmen-cast completes both seeds" 0 $?
"$WX" broadcast gnm 2000 --protocol decay --seeds 1 >/dev/null 2>&1
check "broadcast on a sparse family" 0 $?
"$WX" broadcast grid 36 --engine csr >/dev/null 2>&1
check "--engine is no longer an option (usage error)" 124 $?
"$WX" broadcast grid 36 --protocol nope >/dev/null 2>&1
check "unknown protocol exits 1" 1 $?

# ---- live exposition (--expose) ----
# A handicapped single-experiment bench stays alive long enough to scrape
# twice; bash's /dev/tcp keeps this curl-free.
scrape() { # scrape PORT PATH -> response (headers + body) on stdout
  exec 3<>"/dev/tcp/127.0.0.1/$1" 2>/dev/null || return 1
  printf 'GET %s HTTP/1.0\r\n\r\n' "$2" >&3
  cat <&3
  exec 3<&- 3>&-
}
strip_headers() { sed '1,/^\r\{0,1\}$/d' "$1"; }

EPORT=$((21000 + RANDOM % 20000))
WX_BENCH_HANDICAP_MS=1200 "$WX" bench record --quick -e e1 --repeats 3 --jobs 2 \
  --out "$tmp/exposed.json" --force --expose "$EPORT" \
  >"$tmp/expose.out" 2>"$tmp/expose.err" &
EPID=$!

up=1
for _ in $(seq 1 50); do
  if scrape "$EPORT" /metrics >"$tmp/scrape1.raw" 2>/dev/null && [ -s "$tmp/scrape1.raw" ]; then
    up=0
    break
  fi
  sleep 0.1
done
check "expose endpoint comes up" 0 $up

if [ "$up" -eq 0 ]; then
  strip_headers "$tmp/scrape1.raw" >"$tmp/scrape1.txt"
  # Prometheus text exposition 0.0.4: every line is a comment, blank, or
  # "name{labels} value" with a float / NaN / +-Inf value.
  awk '!(/^#/ || /^$/ || /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$/) { bad = 1; exit 1 } END { exit bad }' "$tmp/scrape1.txt"
  check "first scrape is well-formed exposition text" 0 $?

  sleep 0.7
  scrape "$EPORT" /metrics >"$tmp/scrape2.raw" 2>/dev/null
  check "second scrape" 0 $?
  strip_headers "$tmp/scrape2.raw" >"$tmp/scrape2.txt"

  s1=$(awk '$1 == "wx_expose_scrapes" { print $2 }' "$tmp/scrape1.txt")
  s2=$(awk '$1 == "wx_expose_scrapes" { print $2 }' "$tmp/scrape2.txt")
  [ -n "$s1" ] && [ -n "$s2" ] && [ "${s2%.*}" -gt "${s1%.*}" ]
  check "scrape counter is monotone between scrapes" 0 $?

  # A scrape that lands before the run has scored anything simply has no
  # work counter yet; absent reads as zero.
  w1=$(awk '$1 == "wx_work_sets_scored" { print $2 }' "$tmp/scrape1.txt")
  w2=$(awk '$1 == "wx_work_sets_scored" { print $2 }' "$tmp/scrape2.txt")
  w1=${w1:-0}
  [ -n "$w2" ] && [ "${w2%.*}" -ge "${w1%.*}" ]
  check "work counters are monotone between scrapes" 0 $?

  grep -q '^wx_build_info{' "$tmp/scrape1.txt"
  check "build info gauge is exposed" 0 $?

  # A second process asking for the same port must warn and keep going.
  "$WX" info cycle 16 --expose "$EPORT" >/dev/null 2>"$tmp/bind.err"
  check "port collision does not fail the run" 0 $?
  grep -q "cannot bind" "$tmp/bind.err"
  check "port collision warns on stderr" 0 $?
fi

wait "$EPID"
check "exposed bench run completes cleanly" 0 $?
grep -q "\[expose\] serving" "$tmp/expose.err"
check "exposed run announces its endpoint" 0 $?

if [ "$fails" -gt 0 ]; then
  echo "$fails CLI check(s) failed" >&2
  exit 1
fi
echo "all CLI checks passed"

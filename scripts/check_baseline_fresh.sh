#!/usr/bin/env bash
# Fail when the expansion-measure code changed more recently than the
# committed bench baseline. The perf job's alloc gate compares fresh runs
# against bench/baseline.json, which only means something if a PR touching
# the measured code re-records the baseline in the same change; this guard
# turns "forgot to re-record" into a CI failure instead of a silently
# stale gate.
#
# Comparison is by last-touching commit time (git log -1 --format=%ct),
# not filesystem mtime — checkouts do not preserve the latter. Requires a
# full clone (fetch-depth: 0); on a shallow clone the dates of grafted
# commits would compare equal and the guard would pass vacuously.
set -euo pipefail

cd "$(dirname "$0")/.."

baseline=bench/baseline.json
# The code whose cost the baseline certifies: the exact-measure hot path,
# its enumeration layer (including the bitset count kernels KERN's naive
# rows and the scorers lean on, and the guard that bounds it), the
# experiment definitions themselves, and — since the baseline carries
# work counts and pool utilization (wx-bench/4) — the
# pool scheduler, the work-unit taxonomy, the radio engine and its
# protocols (rounds and vertex scans are counted work kinds), the graph
# layout (graph.ml: the CSR rows the radio scan and Nbhd.Inc walk), the
# RNG (every generator and randomized protocol draws from it, so its
# per-draw allocation lands in every alloc baseline), and the exposition
# server (its scrape
# handling shares the registry the counted runs publish into, so a change
# there can shift the instrumented-path cost the baseline certifies), and
# the Section 4 code experiments E3-E10 time: the spokesmen solvers, the
# heap their Naive/Partition/Greedy picks come from (lib/util/pq.ml), the
# constructions, the bipartite build they all go through, and the claim
# checks.
watched=(lib/expansion lib/util/combi.ml lib/util/combi.mli
         lib/util/bitset.ml lib/util/bitset.mli
         lib/util/guard.ml lib/util/guard.mli
         lib/util/rng.ml lib/util/rng.mli lib/util/pq.ml lib/util/pq.mli bench/*.ml
         lib/par lib/obs/work.ml lib/obs/work.mli lib/radio
         lib/graph/graph.ml lib/graph/rows.ml lib/obs/expose.ml
         lib/spokesmen lib/constructions
         lib/graph/bipartite.ml lib/graph/bipartite.mli
         lib/core/theorems.ml)

if [ ! -f "$baseline" ]; then
  echo "error: $baseline missing" >&2
  exit 2
fi

baseline_ct=$(git log -1 --format=%ct -- "$baseline")
if [ -z "$baseline_ct" ]; then
  echo "error: $baseline has no commit history (shallow clone?)" >&2
  exit 2
fi

stale=0
for path in "${watched[@]}"; do
  ct=$(git log -1 --format=%ct -- "$path")
  [ -z "$ct" ] && continue
  if [ "$ct" -gt "$baseline_ct" ]; then
    commit=$(git log -1 --format=%h -- "$path")
    echo "stale baseline: $path last changed in $commit, after $baseline" >&2
    stale=1
  fi
done

if [ "$stale" -ne 0 ]; then
  echo >&2
  echo "re-record with: dune exec bin/wx.exe -- bench record --quick --jobs 2 --repeats 3 --force" >&2
  exit 1
fi

echo "baseline is at least as new as every watched path"

# The perf-trajectory ledger rides along with the baseline: a re-recorded
# baseline should be digested into bench/ledger.ndjson in the same change
# (wx bench history append bench/baseline.json), and the ledger codec
# lives in lib/obs/ledger.ml. A stale ledger only degrades the trend
# gate's history, it does not invalidate the pairwise gates — so this is
# a warning, not a failure.
ledger=bench/ledger.ndjson
if [ -f "$ledger" ]; then
  ledger_ct=$(git log -1 --format=%ct -- "$ledger")
  if [ -n "$ledger_ct" ]; then
    for path in "$baseline" lib/obs/ledger.ml; do
      ct=$(git log -1 --format=%ct -- "$path")
      [ -z "$ct" ] && continue
      if [ "$ct" -gt "$ledger_ct" ]; then
        echo "warning: $ledger predates the last change to $path;" \
             "refresh with: dune exec bin/wx.exe -- bench history append $baseline" >&2
      fi
    done
  fi
else
  echo "warning: $ledger missing; seed it with: dune exec bin/wx.exe -- bench history append $baseline" >&2
fi

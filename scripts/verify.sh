#!/usr/bin/env bash
# Repo verification, fully offline:
#   0. detlint: the determinism & safety lint pass (token rules D01-D07
#      plus the semantic rules D08 layering / D09 protocol exhaustiveness /
#      D10 panic paths / D11 nondeterminism taint, see DESIGN.md sections
#      10 and 15) — zero unwaived findings, no stale or reason-less
#      waivers, the total waiver count pinned at 4 (detlint's parallel read
#      and self-timing, proplite's case-count knob, the float derivation of
#      BcsConfig::p2p_budget; growing it is a reviewed act: bump
#      --max-waivers here with the new waiver's justification),
#      a well-formed reports/detlint.json, the layer-DAG/call-graph dump
#      in reports/detlint_graph.dot, and detlint self-hosting (its own
#      sources are part of the scanned tree); then the line budget: no
#      file under crates/mpi-api/src/ or crates/quadrics-mpi/src/ over 600
#      lines, and crates/bench/src/experiments.rs (the repro tables) not
#      over 1300
#   1. tier-1: cargo build --release && cargo test -q   (covers the whole
#      workspace via workspace.default-members, the `repro` command line
#      included: crates/bench/tests/cli.rs drives --fabric/--coll and the
#      usage errors, wire_defaults.rs that they are defaults an experiment's
#      own axis overrides)
#   2. explicit --workspace test pass, then a compile-only build of the
#      standalone benchmark package: perf/ is outside the workspace, so
#      nothing above notices when a change breaks the product surface
#      perf/README.md pins
#   3. the conformance lattice at four times its default case count (one
#      generated program in all 30 engine x fabric x collective x schedule
#      x coalescing cells, every form, seeded fault plans; DESIGN.md
#      section 16) and, beside it at four times its case count too,
#      membership_model (communicator membership against plain member
#      lists, run-shaped splits included: it guards the arithmetic that
#      answers a run of world ranks without a search) and the three models
#      of the structures a call passes through on its way to an engine
#      handler: idtable_model (the request window against a BTreeMap, set
#      removals with one compaction included), match_equivalence (indexed
#      matching, its one-probe exact path included, against the linear
#      scan) and batch_equivalence (batched against one-by-one calls, on
#      both engines), the fault-recovery scenarios (the golden recovery
#      table, in which every restore takes over the halted segment's ranks
#      and re-feeds no response; the polling ring whose restore falls back
#      to the full replay; a lookahead carried across two restores;
#      incremental images against deep clones) with the payload equality a
#      restore checks with, and, in release next to it, the count-based
#      tests: a capture's work does not grow with the image
#      number, the replay log retains no message bytes, and a capture
#      copies only the NIC states that changed, compacted (capture_flatness);
#      a message costs at most 2.5 host allocations, no copy and under two
#      queue entries per three events, and a recorded ring at most two
#      allocations per message more than the same ring unrecorded
#      (alloc_per_message's recorded row); a recorded run's receiver reads the allocation its
#      sender posted, in every receive form on both engines, although the
#      tape still holds the send (recorded_sharing); the run-chained radix event queue equals its (time,
#      seq) model (sim_queue_model, at four times its case count: short
#      delays and delays spread over 40 bits, resumed past a horizon stop);
#      the retry layer delivers, retries and aborts as the token-and-timer
#      protocol it replaced did, with one event per attempt (retry_model,
#      at four times its case count);
#      an idle barrier loop runs the same six per-node microphase
#      bodies, and its strobes look at the same 15 nodes, on 1024 and on
#      8192 nodes as on 64 (BcsStats::strobe_visits); two `repro` runs print the same
#      standard output except the `sweep:` line and write nothing but CSVs
#      (release-only in cli.rs)
#   4. the fault ablation (quick), tolerance-gated; its note on what the
#      replay log retains by value must name fewer bytes than were moved
#      point to point
#   5. the quick repro sequentially and with REPRO_THREADS=4: the CSVs
#      must be byte-identical across thread counts; repro's speedup pairs
#      are exact (a work count or virtual time), so they are ratio-gated at
#      any worker count and any load. No step reads a host clock: host time
#      is measured by perf/run.sh, per PR, in BENCH_<pr>.json
#   6. one `repro --quick` run on one sweep worker of four experiments:
#      the n=4096 scale smoke (barrier + neighbor sweeps on the BlueGene/L
#      model, DESIGN.md section 11), with
#      the two n=4096 headline slowdowns tolerance-gated and the slice
#      machinery's dispatches per slice at n=4096 held under twice the
#      smallest n's (DESIGN.md section 9); the
#      fabric-matrix smoke (both engines under the QsNet and the RDMA-channel
#      timing rules, DESIGN.md section 12); the ablation-schedule smoke
#      (DESIGN.md section 13: replay transparency pinned to exactly 0 ns,
#      pattern behavior flags pinned, and the stress pair's DMA gets —
#      one per message indexed, one per coalesced block compiled — gated
#      >= 5x through gate::check_speedups; repro exits non-zero on any
#      miss); and the collective bake-off smoke (DESIGN.md section 14)
#   7. the paper-scale repro (all experiments, tolerance-gated): every CSV
#      it writes must equal, byte for byte, the copy committed under
#      reports/, so the committed reports cannot drift from the sources
#      (about a minute on two cores)
#
# Steps 4 to 7 write their CSVs to a temporary directory: nothing under
# reports/ is rewritten except detlint's two files.
#
# Not run here: scripts/mutants.sh, the opt-in mutation check, puts each
# mutant of scripts/mutants.txt into a scratch copy of the tree and lists
# the ones its named test lets through.
#
# Any compile warning in any workspace crate is a failure (-D warnings).
set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace has zero external dependencies (dev-deps included); prove
# it by forbidding registry/network access outright.
export CARGO_NET_OFFLINE=true
export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

echo "== detlint: determinism & safety lints (D01-D11) -> reports/detlint.json + detlint_graph.dot"
cargo run --release -q -p detlint -- --graph dot --max-waivers 4
[ -s reports/detlint.json ] || { echo "verify: missing reports/detlint.json" >&2; exit 1; }
[ -s reports/detlint_graph.dot ] || { echo "verify: missing reports/detlint_graph.dot" >&2; exit 1; }
cargo run --release -q -p detlint -- --quiet --check-json reports/detlint.json \
  || { echo "verify: reports/detlint.json is malformed" >&2; exit 1; }
# Self-hosting: the linter's own sources are in the scan set (its one
# waived D01, the driver's self-timing, must appear in the ledger).
grep -q "crates/detlint/src/main.rs" reports/detlint.json \
  || { echo "verify: detlint is not linting its own sources" >&2; exit 1; }

echo "== line budget: no file under crates/mpi-api/src/ or crates/quadrics-mpi/src/ over 600 lines, experiments.rs not over 1300"
# Every call and every response crosses mpi-api, so each host-time fast
# path on that route was added to the runtime file: the replay tape, the
# pending-resume slot and the answered-in-place checks took it past 1300
# lines before it was split into world, record and job. A file that
# outgrows the budget is split along its seams, not granted more lines.
# The baseline engine is held to it too: what it shares with BCS-MPI (the
# collective executors, the request lifecycle) lives in mpi-api, and a
# private copy growing back in quadrics-mpi shows here first.
over="$(find crates/mpi-api/src crates/quadrics-mpi/src -name '*.rs' -print0 | xargs -0 wc -l | awk '$2 != "total" && $1 > 600')"
[ -z "$over" ] || { echo "verify: over the 600-line budget of crates/mpi-api/src/ and crates/quadrics-mpi/src/:" >&2; echo "$over" >&2; exit 1; }
# Every repro experiment is a table of rows built by one builder
# (DESIGN.md section 5): an experiment that grows its own assembly, or a
# run path of its own, shows here first.
exp_lines="$(wc -l < crates/bench/src/experiments.rs)"
[ "$exp_lines" -le 1300 ] || { echo "verify: crates/bench/src/experiments.rs is $exp_lines lines, over its 1300-line budget" >&2; exit 1; }

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== full workspace test pass"
cargo test --workspace -q

echo "== benchmark package compiles against the product surface (perf/, build only)"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml

echo "== conformance lattice + membership, request-window, matching, batching, event-queue and retry models (4x cases) + fault-recovery scenarios + count-based tests (capture flatness and NIC sharing, per-message host cost unrecorded and recorded, recorded receives share the sender's bytes, idle scaling, repro output repeats)"
PROPLITE_CASES=48 cargo test --release -q --test conformance
PROPLITE_CASES=512 cargo test --release -q -p mpi-api --test membership_model
PROPLITE_CASES=1024 cargo test --release -q -p simcore --test idtable_model
PROPLITE_CASES=512 cargo test --release -q -p bcs-mpi --test match_equivalence
PROPLITE_CASES=96 cargo test --release -q -p apps --test batch_equivalence
cargo test --release -q --test fault_recovery
cargo test --release -q -p mpi-api --lib payload::
cargo test --release -q -p bcs-mpi --test capture_flatness
cargo test --release -q -p bcs-mpi --test recorded_sharing
cargo test --release -q -p apps --test alloc_per_message
PROPLITE_CASES=1024 cargo test --release -q --test sim_queue_model
PROPLITE_CASES=512 cargo test --release -q -p bcs-core --test retry_model
cargo test --release -q -p bcs-mpi --test idle_scaling
cargo test --release -q -p bench --test cli

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== fault ablation (quick, tolerance-gated)"
fault_out="$(cargo run --release -q -p bench --bin repro -- ablation-fault --quick --out "$tmp/fault")"
[ -s "$tmp/fault/ablation_fault.csv" ] || { echo "verify: missing ablation_fault.csv" >&2; exit 1; }
# The replay log holds point-to-point payloads by reference (DESIGN.md
# section 9): what it retains by value must stay below the bytes moved.
echo "$fault_out" | awk '
  /replay log retains/ { seen = 1; kept = $5; for (i = 6; i < NF; i++) if ($i == "the") moved = $(i + 1) }
  END {
    if (!seen) { print "verify: ablation-fault printed no retained-log-bytes note" > "/dev/stderr"; exit 1 }
    if (kept + 0 >= moved + 0) {
      printf "verify: replay log retains %s B, not below the %s B moved point to point\n", kept, moved > "/dev/stderr"
      exit 1
    }
  }'

echo "== parallel repro determinism (quick, REPRO_THREADS=1 vs 4)"
seq_dir="$tmp/seq"; par_dir="$tmp/par"
REPRO_THREADS=1 cargo run --release -q -p bench --bin repro -- --quick all --out "$seq_dir" >/dev/null
REPRO_THREADS=4 cargo run --release -q -p bench --bin repro -- --quick all --out "$par_dir" >/dev/null
n=0
for f in "$seq_dir"/*.csv; do
  cmp -s "$f" "$par_dir/$(basename "$f")" \
    || { echo "verify: $(basename "$f") differs between REPRO_THREADS=1 and 4" >&2; exit 1; }
  n=$((n + 1))
done
[ "$n" -gt 0 ] || { echo "verify: quick repro emitted no CSVs" >&2; exit 1; }
echo "   $n CSVs byte-identical across thread counts"

echo "== n=4096 scale smoke + fabric-matrix smoke + ablation-schedule/-reduce smokes (single sweep worker)"
smoke="$tmp/smoke"
smoke_out="$(REPRO_THREADS=1 cargo run --release -q -p bench --bin repro -- --quick scale fabric-matrix ablation-schedule ablation-reduce --out "$smoke")"
[ -s "$smoke/scale.csv" ] || { echo "verify: missing scale.csv" >&2; exit 1; }
# O(active) slices (DESIGN.md section 9): what the strobe machinery
# dispatches per slice at n=4096 must stay under twice the smallest n.
echo "$smoke_out" | awk '
  /machine dispatches per slice:/ {
    for (i = 1; i < NF; i++) if ($i ~ /^n=/) { if (!seen) small = $(i + 1); large = $(i + 1); seen = 1 }
  }
  END {
    if (!seen) { print "verify: scale smoke printed no dispatches-per-slice note" > "/dev/stderr"; exit 1 }
    if (large > 2 * small) {
      printf "verify: %s dispatches per slice at n=4096 vs %s at the smallest n\n", large, small > "/dev/stderr"
      exit 1
    }
  }'
for f in fabric_matrix ablation_schedule ablation_reduce; do
  [ -s "$smoke/$f.csv" ] || { echo "verify: missing $f.csv" >&2; exit 1; }
done
# The schedule-machinery stress pair must have been counted and gated
# (a repro that silently skipped it would still exit 0).
echo "$smoke_out" | grep -q "stress_compiled_gets" \
  || { echo "verify: ablation-schedule stress speedup pair did not run" >&2; exit 1; }
# Same for the bake-off's optimal-vs-multicast pair (virtual-time gated).
echo "$smoke_out" | grep -q "rdma_optimal_large_ns" \
  || { echo "verify: ablation-reduce bake-off speedup pair did not run" >&2; exit 1; }
head -1 "$smoke/ablation_reduce.csv" | grep -q "hw-multicast.*binomial.*optimal" \
  || { echo "verify: ablation_reduce.csv lacks the three algorithm columns" >&2; exit 1; }

echo "== paper-scale repro (tolerance-gated): every CSV equals its committed copy under reports/"
cargo run --release -q -p bench --bin repro -- all --out "$tmp/full" >/dev/null
n=0
for f in "$tmp/full"/*.csv; do
  cmp -s "$f" "reports/$(basename "$f")" \
    || { echo "verify: reports/$(basename "$f") differs from what paper-scale repro writes; regenerate with \`repro all --out reports\`" >&2; exit 1; }
  n=$((n + 1))
done
committed="$(ls reports/*.csv | wc -l)"
[ "$n" -eq "$committed" ] || { echo "verify: paper-scale repro wrote $n CSVs, reports/ holds $committed" >&2; exit 1; }
echo "   $n CSVs equal to reports/"

echo "verify: OK"

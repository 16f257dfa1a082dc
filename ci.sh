#!/usr/bin/env bash
# CI gate, in order:
# - formatting, clippy, rustdoc and the workspace tests;
# - the model-feature tests (parkit under conckit's exploring scheduler)
#   and a miri pass over parkit/conckit when the interpreter is installed;
# - speclint over the shipped rule books, controllers and step lists,
#   plus the specsem semantic analysis of the books under their worlds;
# - the unsafe-code audit (every unsafe site carries a SAFETY comment);
# - the conckit exploration gate (model-checked pool/deque/cache
#   interleavings);
# - the certkit certification + explicit-vs-symbolic differential suite,
#   scaled drivesim/warehouse models included;
# - the symbolic backend gate: a fast backend_compare --sweep whose
#   symbolic.* counters are validated by metrics_check and diffed exactly
#   against the committed results/BENCH_backend.json baseline;
# - an instrumented 2-thread headline smoke run (allocation tracking on)
#   validated against the obskit.bench.v2 report schema;
# - the parallel determinism gate: headline artifacts at --threads 1
#   (recorder off) and --threads 2 (recorder and allocation tracking on)
#   must be byte-identical;
# - the perf budget gate (bench_diff of a fresh fast headline run against
#   results/BENCH_headline_fast.json under results/PERF_BUDGETS.json) and
#   its seeded-regression self-test.
set -euo pipefail
cd "$(dirname "$0")"

# Every temp file the gates create lives in one directory, removed by
# the one EXIT trap.
tmp_dir="$(mktemp -d -t ci.XXXXXX)"
trap 'rm -rf "$tmp_dir"' EXIT

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> model-feature tests (parkit under conckit's exploring scheduler)"
cargo clippy -q -p conckit -p parkit -p bench --all-targets \
    --features bench/model -- -D warnings
cargo test -q -p conckit -p parkit --features conckit/model,parkit/model

echo "==> miri gate (parkit + conckit under the interpreter)"
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -p parkit -p conckit
else
    echo "miri gate: SKIPPED (cargo miri not installed)"
fi

echo "==> speclint --deny-warnings"
cargo run -q -p speclint -- --deny-warnings

echo "==> speclint --semantic --deny-warnings (SL3xx over shipped books)"
cargo run -q --release -p speclint -- --semantic --deny-warnings

echo "==> unsafe-code audit (every unsafe site carries a SAFETY comment)"
cargo run -q --release -p bench --bin unsafe_audit -- --no-obs

echo "==> conckit exploration gate (model-checked pool/deque/cache interleavings)"
conc_report="$tmp_dir/BENCH_conc.json"
cargo run -q --release -p bench --features model --bin conc_check -- \
    --metrics-out "$conc_report"
cargo run -q --release -p bench --bin metrics_check -- "$conc_report" \
    --require conckit.schedules,conckit.steps,conckit.violations,conckit.max_depth

echo "==> certkit gate (certification + differential suite, incl. scaled models)"
cargo run -q -p certkit --release

echo "==> symbolic backend gate (fast sweep, symbolic.* metrics, counter diff vs baseline)"
sweep_report="$tmp_dir/BENCH_backend.json"
cargo run -q --release -p bench --bin backend_compare -- \
    --sweep --fast --quiet --metrics-out "$sweep_report" > /dev/null
cargo run -q --release -p bench --bin metrics_check -- "$sweep_report" \
    --require symbolic.checks,symbolic.cache_hits,symbolic.cache_lookups,symbolic.el_iterations,symbolic.peak_nodes,symbolic.reach_rings,backend.sweep_scales,ltlcheck.checks
cargo run -q --release -p bench --bin bench_diff -- \
    results/BENCH_backend.json "$sweep_report" \
    --budgets results/PERF_BUDGETS.json

echo "==> obskit smoke gate (instrumented 2-thread bench run, alloc tracking on)"
smoke_report="$tmp_dir/BENCH_smoke.json"
smoke_art1="$tmp_dir/headline_t1.json"
smoke_art2="$tmp_dir/headline_t2.json"
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --threads 2 --alloc --metrics-out "$smoke_report" \
    --artifacts-out "$smoke_art2" > /dev/null
cargo run -q --release -p bench --bin metrics_check -- "$smoke_report" \
    --require pipeline.pairs_formed,pipeline.responses_scored,ltlcheck.checks,ltlcheck.product_states,ltlcheck.emptiness_checks,ltlcheck.emptiness_states,pretrain.tokens,dpo.pairs_trained,pool.tasks,pool.steals,verify.cache_hits,verify.cache_misses,verify.cache_entries,verify.cache_evictions,verify.cache_hit_rate,dpo.ref_cache_hits,dpo.tokens_per_sec,tape.nodes,tape.grad_buffer_reuses,speclint.semantic_rules,speclint.semantic_checks,speclint.semantic_errors,speclint.semantic_notes,alloc.allocs,alloc.bytes_allocated,alloc.bytes_freed,alloc.frees,alloc.current_bytes,alloc.peak_bytes \
    --require-span pipeline.run,pipeline.pretrain,pipeline.collect,pipeline.sample,pipeline.parse,pipeline.verify,pipeline.rank,pipeline.train,pipeline.eval,pipeline.score_batch,pipeline.score,dpo.ref,dpo.epoch,dpo.forward,dpo.backward

# smoke_art2 was produced at --threads 2 with --alloc; smoke_art1 is
# --threads 1 --no-obs, so this one cmp also proves the tracking
# allocator and recorder never leak into artifacts.
echo "==> parallel determinism gate (headline artifacts, --threads 1 vs 2, alloc on vs off)"
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --no-obs --threads 1 --artifacts-out "$smoke_art1" > /dev/null
cmp "$smoke_art1" "$smoke_art2"

echo "==> perf budget gate (bench_diff vs committed fast-headline baseline)"
perf_report="$tmp_dir/BENCH_perf.json"
cargo run -q --release -p bench --bin headline -- \
    --fast --quiet --threads 1 --alloc --metrics-out "$perf_report" > /dev/null
cargo run -q --release -p bench --bin bench_diff -- \
    results/BENCH_headline_fast.json "$perf_report" \
    --budgets results/PERF_BUDGETS.json

# Self-test against the baseline *itself* so the verdicts are
# deterministic: identical reports must pass, and the same pair with a
# seeded +25% pipeline.train slowdown must fail naming the span —
# machine noise in the fresh candidate above cannot mask the seed here.
# (The seed moved off dpo.backward when the §13 kernels shrank that
# span below the gate's min-share floor in the fast baseline.)
echo "==> perf gate self-test (identical reports pass, seeded +25% regression fails)"
seeded_out="$tmp_dir/bench_diff_seeded.txt"
cargo run -q --release -p bench --bin bench_diff -- \
    results/BENCH_headline_fast.json results/BENCH_headline_fast.json \
    --budgets results/PERF_BUDGETS.json > /dev/null
if cargo run -q --release -p bench --bin bench_diff -- \
    results/BENCH_headline_fast.json results/BENCH_headline_fast.json \
    --budgets results/PERF_BUDGETS.json \
    --seed-regression pipeline.train=1.25 > "$seeded_out"; then
    echo "perf gate self-test FAILED: seeded regression was not detected"
    cat "$seeded_out"
    exit 1
fi
grep -q "pipeline.train" "$seeded_out"

echo "ci: all gates passed"

#!/usr/bin/env sh
# The full local CI gate: release build, the whole test suite, clippy
# with warnings promoted to errors, and formatting. Run from anywhere;
# it always operates on the repo root.
#
#   scripts/ci.sh
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$REPO_ROOT"

# --workspace: the root facade package would otherwise satisfy a bare
# `cargo build`, leaving the CLI and bench binaries the later gates
# invoke unbuilt (or stale).
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The telemetry privacy gate, run by name so a filtered or partial test
# invocation can never silently skip it: traces must carry only bounded
# protocol coordinates, independent of the private data.
echo "==> cargo test --test trace_no_leak"
cargo test --test trace_no_leak

# Wire-codec gates, also run by name. The proptest file checks the
# compact codec (roundtrips, varint and truncation rejection) and that
# every tag outside 6-10, the reserved fixed-width tags 1-5 included, is
# refused; the frame-budget smoke asserts a compact B=64 batch hop stays
# under half the 2312.6 B mean frame of the retired fixed-width codec.
echo "==> cargo test -p privtopk-core --test codec_proptests"
cargo test -p privtopk-core --test codec_proptests

echo "==> cargo test -p privtopk-core --test codec_proptests reserved_legacy_tags_are_rejected"
TAGS_OUT=$(cargo test -p privtopk-core --test codec_proptests reserved_legacy_tags_are_rejected 2>&1)
echo "$TAGS_OUT"
echo "$TAGS_OUT" | grep -q "1 passed" \
    || { echo "error: reserved-tag gate matched no test (renamed?)" >&2; exit 1; }

# TCP framing gate: a header that claims 16 MiB and then stops must
# give a typed error after at most one 64 KiB read step.
echo "==> cargo test -p privtopk-ring --lib read_frame_lying_length_prefix_is_a_bounded_typed_error"
FRAME_OUT=$(cargo test -p privtopk-ring --lib read_frame_lying_length_prefix_is_a_bounded_typed_error 2>&1)
echo "$FRAME_OUT"
echo "$FRAME_OUT" | grep -q "1 passed" \
    || { echo "error: TCP lying-length gate matched no test (renamed?)" >&2; exit 1; }

# Storage gates, run by name: the incremental candidate index must
# agree with a full re-sort over randomized insert/delete/query
# interleavings, and a standing service racing a writer thread must
# produce transcripts bit-identical to a frozen-snapshot run.
echo "==> cargo test --test store_index_equivalence"
cargo test --test store_index_equivalence

echo "==> cargo test --test store_snapshot_isolation"
cargo test --test store_snapshot_isolation

echo "==> cargo test -p privtopk-core --lib compact_b64_mean_frame_under_budget"
BUDGET_OUT=$(cargo test -p privtopk-core --lib compact_b64_mean_frame_under_budget 2>&1)
echo "$BUDGET_OUT"
echo "$BUDGET_OUT" | grep -q "1 passed" \
    || { echo "error: frame-budget smoke matched no test (renamed?)" >&2; exit 1; }

# Local top-k compile gates, run by name with the same rename guard: the
# bounded selection in `TopKVector::from_values` must equal a full sort,
# and a batch compiling each column once must answer every spec exactly
# as its solo run, with the same first error.
echo "==> cargo test -p privtopk-domain --test proptests from_values_matches_full_sort_reference"
TOPK_OUT=$(cargo test -p privtopk-domain --test proptests from_values_matches_full_sort_reference 2>&1)
echo "$TOPK_OUT"
echo "$TOPK_OUT" | grep -q "1 passed" \
    || { echo "error: from_values reference gate matched no test (renamed?)" >&2; exit 1; }

echo "==> cargo test -p privtopk-federation --lib batch_compile_shares_columns_and_keeps_outcomes"
BATCH_OUT=$(cargo test -p privtopk-federation --lib batch_compile_shares_columns_and_keeps_outcomes 2>&1)
echo "$BATCH_OUT"
echo "$BATCH_OUT" | grep -q "1 passed" \
    || { echo "error: shared batch compile gate matched no test (renamed?)" >&2; exit 1; }

# Privacy-accounting gates, run by name so they can never be silently
# skipped: the live accountant must match the offline harness bit for
# bit on the same shadow seed, and two services holding different
# private data must produce identical privacy snapshots.
echo "==> cargo test --test privacy_accounting live_accountant_matches_offline_measure_lop"
cargo test --test privacy_accounting live_accountant_matches_offline_measure_lop
echo "==> cargo test --test privacy_accounting privacy_accounting_no_leak"
cargo test --test privacy_accounting privacy_accounting_no_leak

# Chaos observability gates, run by name so they can never be silently
# skipped: a seeded crash + partition + loss schedule against a standing
# depth-16 service must answer every query bit-identical to the
# fault-free run, with the analyzer attributing nonzero healing cost to
# reconstructed incidents; and the always-on flight ring must feed the
# analyzer even in stats-only mode.
echo "==> cargo test --test chaos_observability chaos_run_is_bit_identical_with_attributed_healing_cost"
cargo test --test chaos_observability chaos_run_is_bit_identical_with_attributed_healing_cost
echo "==> cargo test --test chaos_observability flight_recorder_feeds_the_analyzer_even_in_stats_only_mode"
cargo test --test chaos_observability flight_recorder_feeds_the_analyzer_even_in_stats_only_mode

# Trace tooling smoke: export a fresh 2-query distributed (service-mode)
# trace through the CLI and analyze it back — the reconstructed critical
# path must be non-empty for both queries.
echo "==> privtopk trace analyze smoke"
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
./target/release/privtopk query --kind topk --k 3 --nodes 5 \
    --repeat 2 --pipeline 2 --trace-out "$TRACE_DIR/svc.jsonl" > /dev/null
./target/release/privtopk trace analyze "$TRACE_DIR/svc.jsonl" > "$TRACE_DIR/report.txt"
grep -q "trace analysis: 2 queries" "$TRACE_DIR/report.txt" \
    || { echo "error: expected 2 analyzed queries" >&2; cat "$TRACE_DIR/report.txt" >&2; exit 1; }
grep -q "critical path" "$TRACE_DIR/report.txt" \
    || { echo "error: empty critical path in trace analysis" >&2; cat "$TRACE_DIR/report.txt" >&2; exit 1; }
echo "    critical paths reconstructed for both queries"
./target/release/privtopk privacy report "$TRACE_DIR/svc.jsonl" --trials 8 > "$TRACE_DIR/privacy.txt"
grep -q "privacy report: 2 queries accounted" "$TRACE_DIR/privacy.txt" \
    || { echo "error: privacy report missed the 2 traced queries" >&2; cat "$TRACE_DIR/privacy.txt" >&2; exit 1; }
echo "    privacy report accounted both queries"

# Chaos smoke: a seeded 2-incident schedule injected through the CLI
# against a standing service must come back bit-identical to the
# fault-free baseline and reconstruct the incidents from the trace.
echo "==> privtopk chaos run smoke"
./target/release/privtopk chaos run --nodes 5 --incidents 2 --seed 42 \
    --pipeline 8 > "$TRACE_DIR/chaos.txt"
grep -q "bit-identity: OK" "$TRACE_DIR/chaos.txt" \
    || { echo "error: chaos run lost bit-identity" >&2; cat "$TRACE_DIR/chaos.txt" >&2; exit 1; }
grep -q "incident 1:" "$TRACE_DIR/chaos.txt" \
    || { echo "error: chaos run reconstructed no incident" >&2; cat "$TRACE_DIR/chaos.txt" >&2; exit 1; }
echo "    chaos run bit-identical with reconstructed incidents"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "ci: all gates passed"

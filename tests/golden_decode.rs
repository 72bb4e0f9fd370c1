//! Golden fixture for the decode-serving engine.
//!
//! `tests/fixtures/golden_decode_reports.txt` captures the full
//! [`DecodeReport`] of one small, fixed, capacity-pressured trace under each
//! KV placement policy. Reports are rendered with `{:#?}`, whose `f64`
//! output is the shortest decimal that round-trips to the same bits, so a
//! string comparison is a bit-exact comparison of every counter, latency
//! percentile and energy total. Any change to how the engine prices,
//! admits, evicts or demotes — including a change to how often it calls the
//! backend, if that changed a single bit — fails here.
//!
//! Regenerate (only when intentionally re-baselining the engine) with:
//! `cargo test --test golden_decode -- --ignored regenerate_golden_decode_fixture`

use hyflex_pim::backend::{Backend, HyFlexPim};
use hyflex_runtime::{
    ArrivalProcess, DecodeConfig, DecodeSim, KvPlacementPolicy, RequestClass, RequestTrace,
    TrafficConfig,
};
use hyflex_transformer::ModelConfig;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_decode_reports.txt")
}

/// Renders the reports of every placement on the fixed trace: 150 requests
/// at 20 k QPS mixing 64- and 128-token prompts, 32 output tokens, on a
/// 4-PU KV pool (so admission, eviction and demotion all fire).
fn render() -> String {
    let backend: Arc<dyn Backend> =
        Arc::new(HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap());
    let trace = RequestTrace::new(TrafficConfig {
        process: ArrivalProcess::Poisson { qps: 20_000.0 },
        num_requests: 150,
        classes: vec![RequestClass::new(64, 1.0), RequestClass::new(128, 2.0)],
        seed: 11,
        ..TrafficConfig::default()
    })
    .unwrap();
    let mut out = String::new();
    for placement in [
        KvPlacementPolicy::SlcOnly,
        KvPlacementPolicy::MlcOnly,
        KvPlacementPolicy::Hybrid { hot_window: 16 },
    ] {
        let report = DecodeSim::new(
            Arc::clone(&backend),
            trace.clone(),
            DecodeConfig {
                placement,
                output_tokens: 32,
                kv_pus: 4,
                ..DecodeConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        writeln!(out, "# {}", placement.label()).unwrap();
        writeln!(out, "{report:#?}").unwrap();
    }
    out
}

#[test]
fn decode_reports_match_the_golden_fixture() {
    let path = fixture_path();
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let actual = render();
    for (line, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "golden decode fixture differs at line {}", line + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "golden decode fixture line count changed"
    );
}

/// Rewrites the fixture from the current implementation. Ignored by
/// default: run only when intentionally re-baselining the engine.
#[test]
#[ignore = "rewrites the golden fixture; run only to re-baseline"]
fn regenerate_golden_decode_fixture() {
    std::fs::write(fixture_path(), render()).unwrap();
}

//! The pinned golden fixtures are rendered at `threads = 1`; the parallel
//! executor's determinism contract promises the byte-identical text at any
//! thread count. This suite holds every pinned case to that at 2 and 8
//! threads, and double-runs at 8 to catch same-seed divergence (e.g. a
//! worker-local cache leaking state between dispatches, or a block of
//! robots decided by a different thread than the run before).

use std::fs;
use std::path::PathBuf;

use dispersion_bench::golden::{golden_cases, render_case_with_threads};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

#[test]
fn every_case_matches_its_fixture_at_2_and_8_threads() {
    let dir = golden_dir();
    for case in golden_cases() {
        let path = dir.join(format!("{}.golden", case.name));
        let expected = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        for threads in [2usize, 8] {
            let rendered = render_case_with_threads(&case, threads);
            assert_eq!(
                rendered, expected,
                "case `{}` diverged from its fixture at threads={threads}",
                case.name
            );
        }
    }
}

#[test]
fn parallel_rendering_is_deterministic() {
    for case in golden_cases() {
        let a = render_case_with_threads(&case, 8);
        let b = render_case_with_threads(&case, 8);
        assert_eq!(a, b, "case `{}` double-run at threads=8 diverged", case.name);
    }
}

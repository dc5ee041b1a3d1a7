//! Golden-output tests: every built-in scenario's stdout under
//! `cgte run --builtin NAME` is byte-identical to the output of the
//! original hand-coded figure binaries (same seeds → same series → same
//! tables).
//!
//! The golden files under `tests/golden/` were captured from those
//! binaries. The engine runs every NRMSE job single-threaded internally
//! (jobs are the parallelism unit), so the comparison holds on any
//! machine and any `--threads` setting.

use std::process::Command;

/// Runs `cgte run --builtin NAME ARGS…` and returns its stdout.
fn run_builtin(name: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cgte"))
        .args(["run", "--builtin", name])
        .args(args)
        .output()
        .expect("cannot run cgte");
    assert!(
        out.status.success(),
        "cgte run --builtin {name} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn assert_golden(name: &str, args: &[&str], golden: &str) {
    let actual = run_builtin(name, args);
    if actual != golden {
        // Find the first differing line for a readable failure.
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                a,
                g,
                "first difference at line {} (run `cgte run --builtin {name} {args:?}` to reproduce)",
                i + 1
            );
        }
        assert_eq!(
            actual.lines().count(),
            golden.lines().count(),
            "line count differs for {name} {args:?}"
        );
        panic!("output differs from golden for {name} {args:?}");
    }
}

macro_rules! golden_quick {
    ($($test:ident: $name:literal,)*) => {$(
        #[test]
        fn $test() {
            assert_golden(
                $name,
                &["--quick"],
                include_str!(concat!("golden/", $name, "_quick.txt")),
            );
        }
    )*};
}

golden_quick! {
    fig3_quick: "fig3",
    fig4_quick: "fig4",
    fig5_quick: "fig5",
    fig6_quick: "fig6",
    fig7_quick: "fig7",
    table1_quick: "table1",
    table2_quick: "table2",
    ablation_model_based_quick: "ablation_model_based",
    ablation_swrw_quick: "ablation_swrw",
    ablation_thinning_quick: "ablation_thinning",
}

/// The acceptance bar: default-scale byte-identity for table1.
#[test]
fn table1_default_scale() {
    assert_golden("table1", &[], include_str!("golden/table1_default.txt"));
}

/// The acceptance bar: default-scale byte-identity for fig3. The default
/// scale runs 40 replications over five planted graphs; this is the
/// slowest tier-1 test (seconds in release, tens of seconds unoptimized).
#[test]
fn fig3_default_scale() {
    assert_golden("fig3", &[], include_str!("golden/fig3_default.txt"));
}

/// `--threads` must not change results: jobs are the unit of parallelism
/// and each NRMSE job runs single-threaded internally.
#[test]
fn thread_count_does_not_change_output() {
    let one = run_builtin("ablation_thinning", &["--quick", "--threads", "1"]);
    let four = run_builtin("ablation_thinning", &["--quick", "--threads", "4"]);
    assert_eq!(one, four);
    assert_eq!(one, include_str!("golden/ablation_thinning_quick.txt"));
}

/// `--resume` against a completed run directory re-executes nothing and
/// still reproduces the full golden output.
#[test]
fn resume_reproduces_golden_output() {
    let dir = std::env::temp_dir().join(format!("cgte-golden-resume-{}", std::process::id()));
    let dir_s = dir.to_str().expect("temp dir is UTF-8");
    let first = run_builtin("table2", &["--quick", "--out", dir_s]);
    let resumed = run_builtin("table2", &["--quick", "--out", dir_s, "--resume"]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(first, resumed);
    assert_eq!(first, include_str!("golden/table2_quick.txt"));
}

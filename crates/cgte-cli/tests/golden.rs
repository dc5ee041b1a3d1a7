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

/// `cgte estimate` on a fixed planted graph: the exported JSON (sizes and
/// weights at full precision) and the stderr summary with bootstrap
/// intervals, for both size methods under both designs, are pinned byte
/// for byte by `golden/estimate_{sizes}_{design}.{json,stderr}`.
#[test]
fn estimate_matches_golden_for_each_size_method_and_design() {
    let dir = std::env::temp_dir().join(format!("cgte-golden-estimate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let files = format!("--graph {0}/g.txt --cats {0}/c.txt", dir.display());
    // Arguments split on whitespace (the temp dir path has none).
    let cgte = |args: String| {
        let out = Command::new(env!("CARGO_BIN_EXE_cgte"))
            .args(args.split_whitespace())
            .output()
            .expect("cannot run cgte");
        assert!(
            out.status.success(),
            "cgte {args} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, out.stderr)
    };
    cgte(format!(
        "generate planted --k 8 --alpha 0.4 --scale 20 --seed 7 {files}"
    ));
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for sizes in ["star", "induced"] {
        for design in ["uniform", "weighted"] {
            let (out, err) = cgte(format!(
                "estimate {files} --sampler rw --n 2000 --seed 7 --format json \
                 --ci 0.9 --boot 50 --sizes {sizes} --design {design}"
            ));
            let want = |ext: &str| {
                std::fs::read(golden.join(format!("estimate_{sizes}_{design}.{ext}")))
                    .expect("golden file")
            };
            let case = format!("--sizes {sizes} --design {design}");
            assert_eq!(
                String::from_utf8_lossy(&out),
                String::from_utf8_lossy(&want("json")),
                "stdout of {case}"
            );
            assert_eq!(
                String::from_utf8_lossy(&err),
                String::from_utf8_lossy(&want("stderr")),
                "stderr of {case}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! Command-line parsing: every subcommand rejects a flag it does not
//! know, and bad values exit with a clean error instead of a panic.

use std::process::{Command, Output};

fn cgte(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cgte"))
        .args(args)
        .output()
        .expect("cannot run cgte")
}

/// Runs `cgte ARGS…`, asserts a non-zero exit without a panic, and
/// returns stderr.
fn fails(args: &[&str]) -> String {
    let out = cgte(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "cgte {args:?} succeeded");
    assert!(
        !stderr.contains("panicked"),
        "cgte {args:?} panicked:\n{stderr}"
    );
    stderr
}

#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    let invocations: [&[&str]; 13] = [
        &["generate", "planted"],
        &["generate", "standin"],
        &["ingest"],
        &["info", "g.cgteg"],
        &["sample", "--sampler", "uis"],
        &["exact"],
        &["estimate"],
        &["run", "--builtin", "fig4"],
        &["serve"],
        &["cluster"],
        &["trace", "summarize", "t.jsonl"],
        &["metrics", "check", "m.txt"],
        &["bench"],
    ];
    for args in invocations {
        let args = [args, &["--bogus", "1"]].concat();
        let stderr = fails(&args);
        assert!(
            stderr.contains("unknown flag --bogus"),
            "cgte {args:?}:\n{stderr}"
        );
    }
}

#[test]
fn stray_positionals_and_conflicting_scales_are_rejected() {
    let stderr = fails(&["sample", "extra"]);
    assert!(stderr.contains("unexpected argument \"extra\""), "{stderr}");
    let stderr = fails(&["run", "--builtin", "fig4", "--quick", "--full"]);
    assert!(
        stderr.contains("at most one of --quick, --full, --huge"),
        "{stderr}"
    );
}

#[test]
fn zero_thinning_is_a_clean_error() {
    let dir = std::env::temp_dir().join(format!("cgte-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.txt");
    let cats = dir.join("c.txt");
    let (graph, cats) = (graph.to_str().unwrap(), cats.to_str().unwrap());
    let out = cgte(&[
        "generate", "planted", "--k", "4", "--alpha", "0.3", "--scale", "20", "--graph", graph,
        "--cats", cats,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for cmd in ["sample", "estimate"] {
        let stderr = fails(&[
            cmd,
            "--graph",
            graph,
            "--cats",
            cats,
            "--sampler",
            "rw",
            "--thinning",
            "0",
        ]);
        assert!(stderr.contains("--thinning must be positive"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

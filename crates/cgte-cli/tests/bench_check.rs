//! `cgte bench --check` reads its baseline before the harness writes
//! `--out`, and refuses outright when both name the same file: the run
//! would overwrite the baseline and then compare the report with itself.

use std::process::Command;

#[test]
fn out_and_check_naming_one_file_is_refused() {
    let dir = std::env::temp_dir().join(format!("cgte-cli-bench-check-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    let baseline = dir.join("baseline.json");
    std::fs::write(&baseline, "{\"schema\": \"cgte-bench/1\"}").unwrap();
    // The same file under two spellings, and the default `--out` against
    // a baseline of that name in the working directory.
    let respelled = dir.join("sub").join("..").join("baseline.json");
    let runs = [
        (
            vec!["--out", baseline.to_str().unwrap()],
            respelled.to_str().unwrap(),
        ),
        (vec![], "BENCH_PR10.json"),
    ];
    std::fs::copy(&baseline, dir.join("BENCH_PR10.json")).unwrap();
    for (out, check) in runs {
        let output = Command::new(env!("CARGO_BIN_EXE_cgte"))
            .current_dir(&dir)
            .args(["bench", "--quick"])
            .args(out)
            .args(["--check", check])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{stderr}");
        assert!(stderr.contains("name the same file"), "{stderr}");
        // Refused before the harness ran: no section was timed.
        assert!(!stderr.contains("build/"), "{stderr}");
    }
    let kept = std::fs::read_to_string(&baseline).unwrap();
    assert_eq!(kept, "{\"schema\": \"cgte-bench/1\"}");
    std::fs::remove_dir_all(&dir).ok();
}

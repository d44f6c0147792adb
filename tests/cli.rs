//! The `mcds` argument parser, end to end: each case runs the real
//! binary, and every process a test spawns is killed after 5 s, so a
//! command that ignores its arguments and keeps running fails instead
//! of hanging the suite.

use std::collections::BTreeSet;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output};
use std::time::{Duration, Instant};

use mcds_bench::cli::{self, Parsed};
use mcds_serve::LoadReport;

const TIMEOUT: Duration = Duration::from_secs(5);

fn spawn(dir: &Path, args: &[&str], stdout: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_mcds"))
        .args(args)
        .current_dir(dir)
        .stdout(File::create(dir.join(stdout)).expect("stdout file"))
        .stderr(File::create(dir.join(format!("{stdout}.err"))).expect("stderr file"))
        .spawn()
        .expect("spawn mcds")
}

/// Runs `mcds <args>` in `dir`, killed after [`TIMEOUT`].
fn mcds(dir: &Path, args: &str) -> Output {
    let argv: Vec<&str> = args.split_whitespace().collect();
    let mut child = spawn(dir, &argv, "out");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for mcds") {
            break status;
        }
        if started.elapsed() > TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`mcds {args}` still running after {TIMEOUT:?}; killed");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let read = |name: &str| std::fs::read(dir.join(name)).expect("captured output");
    Output {
        status,
        stdout: read("out"),
        stderr: read("out.err"),
    }
}

/// A fresh scratch directory holding `app.json` (the `sample-app`
/// output), removed when dropped.
struct AppDir(PathBuf);

impl Drop for AppDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn app_dir(test: &str) -> AppDir {
    let dir = std::env::temp_dir().join(format!("mcds-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let dir = AppDir(dir);
    let out = mcds(&dir.0, "sample-app");
    assert!(out.status.success());
    std::fs::write(dir.0.join("app.json"), out.stdout).expect("write app.json");
    dir
}

fn assert_rejected(out: &Output, names: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    for name in names {
        assert!(
            stderr.contains(name),
            "stderr does not name {name}: {stderr}"
        );
    }
}

#[test]
fn sweep_reads_app_files_given_after_flags() {
    let AppDir(dir) = &app_dir("sweep");
    let out = mcds(dir, "sweep --threads 1 --format csv app.json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let rows: Vec<&str> = stdout.lines().skip(1).collect();
    assert!(!rows.is_empty(), "{stdout}");
    assert!(rows.iter().all(|r| r.starts_with("sample,")), "{stdout}");
}

#[test]
fn misspelled_flags_are_rejected() {
    let AppDir(dir) = &app_dir("typo");
    assert_rejected(&mcds(dir, "plan app.json --schedular ds"), &["--schedular"]);
    assert_rejected(&mcds(dir, "sweep --fb-kw-lst 1"), &["--fb-kw-lst"]);
    assert_rejected(
        &mcds(dir, "serve --fsync-policy never"),
        &["--fsync-policy"],
    );
}

#[test]
fn duplicate_flag_is_rejected() {
    let AppDir(dir) = &app_dir("duplicate");
    let out = mcds(dir, "plan app.json --fb-kw 1 --fb-kw 8");
    assert_rejected(&out, &["duplicate", "--fb-kw"]);
}

#[test]
fn valued_flag_without_its_value_is_rejected() {
    let AppDir(dir) = &app_dir("valueless");
    let out = mcds(dir, "run app.json --trace-out --metrics");
    assert_rejected(&out, &["--trace-out"]);
    assert!(
        !dir.join("--metrics").exists(),
        "wrote a trace named `--metrics`"
    );
}

#[test]
fn surplus_operand_is_rejected() {
    let AppDir(dir) = &app_dir("surplus");
    assert_rejected(&mcds(dir, "serve 8080"), &["8080"]);
}

#[test]
fn explore_rejects_the_planner_flags_it_never_read() {
    let AppDir(dir) = &app_dir("explore");
    for flag in [
        "--scheduler basic",
        "--clusters 0,1",
        "--gantt",
        "--program",
    ] {
        let out = mcds(dir, &format!("explore app.json {flag}"));
        assert_rejected(&out, &[flag.split(' ').next().unwrap()]);
    }
}

#[test]
fn serve_help_lists_its_flags_and_binds_nothing() {
    let AppDir(dir) = &app_dir("serve-help");
    let out = mcds(dir, "serve --help");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("--store-dir"), "{stdout}");
    assert!(!stdout.contains("listening"), "{stdout}");
}

#[test]
fn top_level_help_lists_all_fourteen_commands() {
    let AppDir(dir) = &app_dir("help");
    let out = mcds(dir, "--help");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for command in [
        "sample-app",
        "inspect",
        "plan",
        "run",
        "explore",
        "sweep",
        "serve",
        "client",
        "load",
        "chaos",
        "crashdrill",
        "overload",
        "hotpath",
        "search-bench",
    ] {
        assert!(
            stdout.contains(&format!("\n  {command} ")),
            "{command}: {stdout}"
        );
    }
}

/// A `mcds serve` child on a free port, killed when dropped.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn load_children_inherit_the_parent_flags() {
    let AppDir(dir) = &app_dir("load");
    let serve_args = ["serve", "--addr", "127.0.0.1:0", "--workers", "1"];
    let _server = Serve(spawn(dir, &serve_args, "serve.log"));
    let started = Instant::now();
    let addr = loop {
        let log = std::fs::read_to_string(dir.join("serve.log")).unwrap_or_default();
        if let Some(addr) = log.strip_prefix("mcds-serve listening on ") {
            if addr.ends_with('\n') {
                break addr.trim().to_owned();
            }
        }
        assert!(started.elapsed() < TIMEOUT, "no serve banner: {log:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = mcds(
        dir,
        &format!(
            "load --addr {addr} --procs 2 --connections 1 --pipeline 2 \
             --requests 30 --distinct-keys 6 --seed 5 --class batch"
        ),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let report: LoadReport = serde_json::from_str(&stdout).expect("load report");
    assert_eq!((report.processes, report.requests, report.ok), (2, 30, 30));
    // Defaults differ from these (24 keys, pipeline 32): the children
    // drove exactly the parent's flags.
    assert_eq!((report.distinct_keys, report.pipeline), (6, 2));
    assert!(report.consistent_outcomes);
}

fn parse(args: &[String]) -> cli::Args {
    match cli::parse(args) {
        Ok(Parsed::Run(args)) => args,
        Ok(Parsed::Help(_)) => panic!("{args:?} asked for help"),
        Err(e) => panic!("{args:?}: {e}"),
    }
}

#[test]
fn load_child_argv_repeats_every_parent_flag_but_its_share() {
    let parent: Vec<String> = "load --addr 10.0.0.1:9 --connections 3 --requests 10 \
        --distinct-keys 6 --pipeline 2 --seed 5 --scheduler ds --deadline-ms 50 \
        --retries 1 --class batch --procs 3"
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    let parent = parse(&parent);
    let child = parse(&parent.argv_with(&[("--requests", "4".into()), ("--seed", "10012".into())]));
    for flag in [
        "--addr",
        "--connections",
        "--distinct-keys",
        "--pipeline",
        "--scheduler",
        "--deadline-ms",
        "--retries",
        "--class",
        "--procs",
    ] {
        assert_eq!(child.get(flag), parent.get(flag), "{flag}");
    }
    assert_eq!(child.get("--requests"), Some("4"));
    assert_eq!(child.get("--seed"), Some("10012"));
}

/// Every `mcds` command line in CI and the README parses against the
/// tables, and the ones CI runs to prove a rejection (`|| status=$?`)
/// are rejected: the tables never break an invocation users rely on.
#[test]
fn documented_invocations_parse() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut commands = BTreeSet::new();
    for file in [".github/workflows/ci.yml", "README.md"] {
        let text = std::fs::read_to_string(root.join(file)).expect("documented file");
        for line in text.replace("\\\n", " ").lines() {
            let Some(at) = ["--bin mcds -- ", "release/mcds ", "$ mcds "]
                .iter()
                .find_map(|marker| line.find(marker).map(|i| i + marker.len()))
            else {
                continue;
            };
            let argv: Vec<String> = line[at..]
                .split_whitespace()
                .take_while(|w| !["&", "|", ">", "2>"].iter().any(|op| w.starts_with(op)))
                .map(|w| w.trim_matches('"').to_owned())
                .collect();
            let rejected = cli::parse(&argv).is_err();
            assert_eq!(rejected, line.contains("|| status=$?"), "{file}: {line}");
            commands.insert(argv[0].clone());
        }
    }
    assert_eq!(commands.len(), cli::COMMANDS.len(), "{commands:?}");
}

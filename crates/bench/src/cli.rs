//! The `mcds` argument parser: one declarative flag table per
//! subcommand, and the one source of every usage and `--help` text.
//!
//! Each command declares its operands and its flags; flags shared by
//! several commands are declared once and composed by slice. [`parse`]
//! rejects anything the table does not declare — an unknown or repeated
//! flag, a valued flag without its value, a surplus operand — so a typo
//! fails with exit 2 instead of silently changing the experiment.

use std::ops::RangeInclusive;
use std::str::FromStr;

use mcds_core::{McdsError, SchedulerKind};
use mcds_serve::{LoadConfig, ServeConfig, StoreConfig};

/// A flag's value when argv omits it.
enum Fallback {
    /// The command skips whatever the flag would configure.
    Unset,
    /// A literal the command parses exactly like an explicit value.
    Is(&'static str),
    /// The library config's own default, rendered by `--help`; the
    /// command leaves that config field untouched.
    Lib(fn() -> String),
}
use Fallback::{Is, Lib, Unset};

/// One row of a flag table: `"--name META"` (plain `"--name"` for a
/// switch), one help line, and the fallback.
struct Flag(&'static str, &'static str, Fallback);

impl Flag {
    fn name(&self) -> &'static str {
        self.0.split_once(' ').map_or(self.0, |(name, _)| name)
    }
}

#[rustfmt::skip]
const CROSS_SET: Flag = Flag("--cross-set", "enable the dual-ported-FB extension", Unset);
#[rustfmt::skip]
const CLUSTERS: Flag = Flag("--clusters \"0,1;2;3\"", "kernel ids per cluster, ';'-separated (unset: one cluster per kernel)", Unset);
#[rustfmt::skip]
const FB_KW_LIST: Flag = Flag("--fb-kw-list 1,2,3,8", "FB sizes in kilowords to cross every workload with", Is("1,2,3,8"));
#[rustfmt::skip]
const OUT: &[Flag] = &[Flag("--out F.json", "also write the report to F.json", Unset)];
#[rustfmt::skip]
const ARCH: &[Flag] = &[Flag("--fb-kw N", "FB set size in kilowords", Is("1")), CROSS_SET];

#[rustfmt::skip]
const PLANNER: &[Flag] = &[
    CLUSTERS,
    Flag("--scheduler KIND", "data scheduler: basic|ds|cds|search[:beam[:cap]]", Is("cds")),
    Flag("--gantt", "print the execution Gantt chart", Unset),
    Flag("--program", "print the generated transfer program (code generator output)", Unset),
];

#[rustfmt::skip]
const SERVE: &[Flag] = &[
    Flag("--addr A:P", "bind address; port 0 picks a free port", Is("127.0.0.1:7171")),
    Flag("--workers N", "scheduling worker threads", Lib(|| ServeConfig::default().workers.to_string())),
    Flag("--queue-depth N", "admission queue capacity; a full queue rejects", Lib(|| ServeConfig::default().queue_depth.to_string())),
    Flag("--max-frame-kb N", "largest accepted request frame in KiB", Lib(|| (ServeConfig::default().max_frame_bytes / 1024).to_string())),
    Flag("--shards N", "outcome-cache shards, rounded up to a power of two", Lib(|| ServeConfig::default().shards.to_string())),
    Flag("--fault-seed S", "attach a deterministic chaos-preset fault plan seeded S", Unset),
    Flag("--degrade-below-ms D", "deadlines under D ms skip straight to the degraded scheduler",
        Lib(|| ServeConfig::default().degrade_below_ms.to_string())),
    Flag("--no-degrade", "disable the degraded (within-cluster-only) fallback", Unset),
    Flag("--qos-quotas P,S,B", "per-class admission quotas, priority,standard,batch; 0 inherits --queue-depth",
        Lib(|| ServeConfig::default().qos_quotas.map(|q| q.to_string()).join(","))),
    Flag("--shed-after-ms D", "shed stale lower-class queue heads once dequeue delay exceeds D ms; 0 = off",
        Lib(|| ServeConfig::default().shed_after_ms.to_string())),
    Flag("--idle-timeout-ms D", "reap connections with no complete frame for D ms; 0 = off",
        Lib(|| ServeConfig::default().idle_timeout_ms.to_string())),
    Flag("--write-stall-ms D", "reap connections accepting no bytes for D ms while output is pending; 0 = off",
        Lib(|| ServeConfig::default().write_stall_ms.to_string())),
    Flag("--conn-buffer-kb N", "per-connection buffered-output cap in KiB; past it the peer gets `overloaded`; 0 = off",
        Lib(|| (ServeConfig::default().max_conn_buffer_bytes / 1024).to_string())),
    Flag("--store-dir DIR", "journal committed outcomes to a WAL + snapshot store in DIR and warm-start from it", Unset),
    Flag("--fsync P", "store sync policy: always | interval[:ms] | never; requires --store-dir",
        Lib(|| StoreConfig::new("").fsync.to_string())),
];

#[rustfmt::skip]
const CLIENT: &[Flag] = &[
    Flag("--addr A:P", "server address", Lib(|| LoadConfig::default().addr.to_string())),
    Flag("--connections N", "concurrent connections", Lib(|| LoadConfig::default().connections.to_string())),
    Flag("--requests M", "total requests across both phases", Lib(|| LoadConfig::default().requests.to_string())),
    Flag("--distinct-keys K", "distinct request keys; the cold phase touches each once", Lib(|| LoadConfig::default().distinct_keys.to_string())),
    Flag("--pipeline W", "in-flight requests per connection; 1 = lockstep", Lib(|| LoadConfig::default().pipeline.to_string())),
    Flag("--seed S", "warm-phase sampling seed", Lib(|| LoadConfig::default().seed.to_string())),
    Flag("--scheduler KIND", "scheduler sent with every request, as for `plan` (unset: the server's)", Unset),
    Flag("--deadline-ms D", "per-request deadline (unset: none)", Unset),
    Flag("--retries N", "re-queues per failed request", Lib(|| LoadConfig::default().retries.to_string())),
    Flag("--class C", "admission class sent with every request: priority|standard|batch (unset: the server's)", Unset),
];

/// One `mcds` subcommand: name, operand synopsis, operand count,
/// one-line description and flag groups.
pub struct Command(
    &'static str,
    &'static str,
    RangeInclusive<usize>,
    &'static str,
    &'static [&'static [Flag]],
);

/// Every `mcds` subcommand, in `mcds --help` order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command("sample-app", "", 0..=0, "print a sample application JSON", &[]),
    Command("inspect", "<app.json>", 1..=1, "summary + dataflow", &[]),
    Command("plan", "<app.json>", 1..=1, "plan + simulate", &[ARCH, PLANNER]),
    Command("run", "<app.json>", 1..=1, "plan + simulate with tracing", &[ARCH, PLANNER, &[
        Flag("--explain", "print the human-readable decision log", Unset),
        Flag("--trace-out F.jsonl", "stream every trace event to F.jsonl, one JSON object per line", Unset),
        Flag("--metrics", "print the aggregated metrics counters after the run", Unset),
    ]]),
    Command("explore", "<app.json>", 1..=1, "kernel-scheduler partition search, planned with CDS", &[ARCH]),
    Command("sweep", "[app.json …]", 0..=usize::MAX, "parallel design-space sweep; no app files: the paper's Table-1 workloads", &[&[
        CROSS_SET,
        CLUSTERS,
        FB_KW_LIST,
        Flag("--threads N", "worker threads; 1 = serial (unset: all cores)", Unset),
        Flag("--format table|json|csv", "report format", Is("table")),
        Flag("--schedulers a,b,…", "scheduler axis, comma-separated kinds (e.g. add search:1,search:8)",
            Lib(|| SchedulerKind::ALL.map(SchedulerKind::name).join(","))),
    ]]),
    Command("serve", "", 0..=0, "scheduling service (versioned newline-delimited JSON over TCP)", &[SERVE]),
    Command("client", "", 0..=0, "single-process load client; prints a JSON report", &[CLIENT]),
    Command("load", "", 0..=0, "scaled multi-process load harness; prints a merged JSON report", &[CLIENT, &[
        Flag("--procs P", "driver processes; their reports merge exactly", Is("2")),
        Flag("--child", "run as one driver process and print its raw report (what --procs spawns)", Unset),
    ]]),
    Command("chaos", "", 0..=0, "deterministic fault-injection soak; prints JSON per seed", &[&[
        Flag("--seed S", "first fault seed", Is("7")),
        Flag("--seeds N", "soak N consecutive seeds S, S+1, …", Is("1")),
        Flag("--requests M", "requests per seed", Is("200")),
        Flag("--workers N", "server worker threads per seed", Is("2")),
    ]]),
    Command("crashdrill", "", 0..=0, "kill -9 durability drill; prints a JSON evidence report", &[OUT, &[
        Flag("--seed S", "deterministic drill seed", Is("7")),
        Flag("--keys K", "outcomes committed (acked + fsynced) before the kill -9", Is("12")),
        Flag("--requests M", "background requests racing the kill", Is("64")),
        Flag("--dir D", "store directory (unset: a fresh temp directory, removed when the drill passes)", Unset),
    ]]),
    Command("overload", "", 0..=0, "adversarial overload drill; prints a JSON evidence report", &[OUT, &[
        Flag("--addr A:P", "attack an already-running server (unset: self-host a small-quota, short-timeout one)", Unset),
        Flag("--requests M", "requests per well-behaved traffic class", Is("400")),
        Flag("--priority-deadline-ms D", "deadline of the priority class; the report records whether its p99 met it", Is("2000")),
        Flag("--abuse-clients N", "clients per abusive population", Is("4")),
        Flag("--abuse-duration-ms D", "abusive-population runtime", Is("1500")),
        Flag("--abuse-modes a,b", "populations from slow_writer|stalled_reader|idle_holder|frame_flood", Is("frame_flood,stalled_reader")),
    ]]),
    Command("hotpath", "", 0..=0, "hot-path micro-benchmarks; prints a JSON evidence report", &[OUT, &[
        Flag("--check BASELINE.json", "fail if any speedup regresses >10% below the baseline's", Unset),
        Flag("--repeats N", "timing repeats per probe; minima are reported", Is("5")),
    ]]),
    Command("search-bench", "", 0..=0, "beam-search vs greedy CDS benchmark; prints a JSON evidence report", &[OUT, &[
        Flag("--beam N", "beam width of the searched variant", Is("32")),
        Flag("--max-expansions N", "expansion cap per rung, 0 = unlimited", Is("100000")),
        FB_KW_LIST,
        Flag("--seeds N", "synthetic workloads per FB size", Is("12")),
    ]]),
];

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.4.iter().copied().flatten()
    }

    fn synopsis(&self) -> String {
        format!("{} {}", self.0, self.1).trim_end().to_owned()
    }

    /// `mcds <command> --help`, generated from the table.
    fn help(&self) -> String {
        let mut out = format!(
            "usage: mcds {} [options]\n\n{}\n\noptions:\n",
            self.synopsis(),
            self.3
        );
        for Flag(head, help, fallback) in self.flags() {
            let default = match fallback {
                Unset => String::new(),
                Is(value) => format!(" (default: {value})"),
                Lib(render) => format!(" (default: {})", render()),
            };
            out += &format!("  {head:<26} {help}{default}\n");
        }
        out + &format!("  {:<26} print this help\n", "-h, --help")
    }

    fn reject(&self, what: String) -> McdsError {
        McdsError::spec(format!("mcds {0}: {what}; see `mcds {0} --help`", self.0))
    }
}

/// `mcds --help`, generated from [`COMMANDS`].
fn usage() -> String {
    let mut out = String::from("usage: mcds <command> [options]\n\ncommands:\n");
    for c in COMMANDS {
        out += &format!("  {:<26} {}\n", c.synopsis(), c.3);
    }
    out + "\n`mcds <command> --help` lists a command's options.\n"
}

/// What argv asks for.
pub enum Parsed {
    /// Print this help text and exit 0, running nothing.
    Help(String),
    /// Run a command with these checked arguments.
    Run(Args),
}

/// A checked invocation: every flag is in the command's table, given
/// at most once and with its value; the operand count fits.
pub struct Args {
    table: &'static Command,
    given: Vec<(&'static str, Option<String>)>,
    /// The command's name.
    pub command: &'static str,
    /// The operands, in argv order wherever they appeared.
    pub operands: Vec<String>,
}

/// Parses `mcds` argv (without the program name) against [`COMMANDS`].
///
/// # Errors
///
/// A [`McdsError::Spec`] naming the offending argument: a missing or
/// unknown command, an unknown or duplicate flag, a valued flag whose
/// value is missing or starts with `--`, a missing or surplus operand.
pub fn parse(argv: &[String]) -> Result<Parsed, McdsError> {
    let is_help = |a: &String| a == "--help" || a == "-h";
    let Some((first, rest)) = argv.split_first() else {
        return Err(McdsError::spec("missing command; see `mcds --help`"));
    };
    if is_help(first) {
        return Ok(Parsed::Help(usage()));
    }
    let table = COMMANDS
        .iter()
        .find(|c| c.0 == first)
        .ok_or_else(|| McdsError::spec(format!("unknown command `{first}`; see `mcds --help`")))?;
    if rest.iter().any(is_help) {
        return Ok(Parsed::Help(table.help()));
    }
    let (mut given, mut operands) = (Vec::new(), Vec::new());
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            operands.push(arg.clone());
            continue;
        }
        let flag = (table.flags().find(|f| f.name() == arg))
            .ok_or_else(|| table.reject(format!("unknown flag `{arg}`")))?;
        if given.iter().any(|(name, _)| name == arg) {
            return Err(table.reject(format!("duplicate flag `{arg}`")));
        }
        let value = match flag.0.split_once(' ') {
            None => None,
            Some((_, meta)) => match rest.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return Err(table.reject(format!("`{arg}` needs a value {meta}"))),
            },
        };
        given.push((flag.name(), value));
    }
    if let Some(surplus) = operands.get(*table.2.end()) {
        return Err(table.reject(format!("unexpected operand `{surplus}`")));
    }
    if operands.len() < *table.2.start() {
        return Err(table.reject(format!("missing {}", table.1)));
    }
    let command = table.0;
    Ok(Parsed::Run(Args {
        table,
        given,
        command,
        operands,
    }))
}

impl Args {
    /// This command's row for `name`; `None` when only other commands
    /// declare it, so a handler shared by several commands reads it as
    /// unset.
    ///
    /// # Panics
    ///
    /// If no table declares `name`: a typo in the caller.
    fn declared(&self, name: &str) -> Option<&'static Flag> {
        let known = COMMANDS.iter().any(|c| c.flags().any(|f| f.name() == name));
        assert!(known, "no `mcds` flag table declares `{name}`");
        self.table.flags().find(|f| f.name() == name)
    }

    /// `true` when the switch `name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.declared(name);
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value of `name`: the one given, else the table's literal
    /// default, else `None`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        let given = self.given.iter().find(|(n, _)| *n == name);
        match (given, self.declared(name).map(|flag| &flag.2)) {
            (Some((_, value)), _) => value.as_deref(),
            (None, Some(Is(value))) => Some(value),
            (None, _) => None,
        }
    }

    /// The value of a flag whose table entry has a literal default.
    ///
    /// # Panics
    ///
    /// If the table gives `name` no literal default: a bug in the caller.
    #[must_use]
    pub fn str(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| panic!("`{name}` has no table default"))
    }

    /// [`get`](Self::get), parsed; the error names the flag and value.
    pub fn parse<T: FromStr>(&self, name: &str) -> Result<Option<T>, McdsError>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name).map(|v| parsed(name, v)).transpose()
    }

    /// Overwrites `field` with the parsed value of `name` when argv or
    /// the table gives one; the error names the flag and value.
    pub fn set<T: FromStr>(&self, name: &str, field: &mut T) -> Result<(), McdsError>
    where
        T::Err: std::fmt::Display,
    {
        if let Some(value) = self.parse(name)? {
            *field = value;
        }
        Ok(())
    }

    /// [`str`](Self::str), parsed; the error names the flag and value.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<T, McdsError>
    where
        T::Err: std::fmt::Display,
    {
        parsed(name, self.str(name))
    }

    /// A comma-separated value, each item parsed (empty when unset); the
    /// error names the flag and the item.
    pub fn list<T: FromStr>(&self, name: &str) -> Result<Vec<T>, McdsError>
    where
        T::Err: std::fmt::Display,
    {
        let items = |list: &str| list.split(',').map(|v| parsed(name, v)).collect();
        self.get(name).map_or(Ok(Vec::new()), items)
    }

    /// This invocation as argv again (command, flags given explicitly,
    /// operands), with each `(flag, value)` of `set` replacing or adding
    /// that flag.
    #[must_use]
    pub fn argv_with(&self, set: &[(&'static str, String)]) -> Vec<String> {
        let kept = self
            .given
            .iter()
            .filter(|(name, _)| set.iter().all(|(s, _)| s != name));
        let set = set.iter().map(|(name, value)| (*name, Some(value.clone())));
        let mut argv = vec![self.command.to_owned()];
        for (name, value) in kept.cloned().chain(set) {
            argv.push(name.to_owned());
            argv.extend(value);
        }
        argv.extend(self.operands.iter().cloned());
        argv
    }
}

fn parsed<T: FromStr>(name: &str, value: &str) -> Result<T, McdsError>
where
    T::Err: std::fmt::Display,
{
    let value = value.trim();
    value
        .parse()
        .map_err(|e| McdsError::spec(format!("{name} `{value}`: {e}")))
}

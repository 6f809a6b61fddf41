//! Hand-rolled argument parsing (the offline dependency set has no CLI
//! crate, and the surface is small enough that one is not missed).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Flags that are bare switches (present/absent) rather than
/// `--flag value` pairs.
const BOOLEAN_FLAGS: &[&str] = &["stats", "json"];

/// CLI-level errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// No subcommand or an unknown one.
    UnknownCommand {
        /// What was typed.
        got: String,
    },
    /// A flag was missing its value or unknown.
    BadFlag {
        /// The offending token.
        flag: String,
    },
    /// A flag value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The unparseable value.
        value: String,
    },
    /// Anything from the underlying library, stringified at the boundary.
    Execution(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand { got } => {
                write!(f, "unknown command `{got}` (try `privtopk help`)")
            }
            CliError::BadFlag { flag } => write!(f, "unknown or incomplete flag `{flag}`"),
            CliError::BadValue { flag, value } => {
                write!(f, "invalid value `{value}` for `{flag}`")
            }
            CliError::Execution(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for CliError {}

/// The parsed subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `privtopk query ...` / `privtopk audit ...` (audit = query +
    /// privacy report).
    Query {
        /// Whether to attach the LoP audit.
        audit: bool,
    },
    /// `privtopk analyze ...`
    Analyze,
    /// `privtopk knn ...` — federated kNN classification.
    Knn,
    /// `privtopk trace analyze <files...>` — merge per-node JSONL
    /// traces and reconstruct per-query critical paths.
    TraceAnalyze,
    /// `privtopk trace watch` — poll a live service metrics endpoint.
    TraceWatch,
    /// `privtopk trace dump` — run a standing service briefly and dump
    /// its recorder's event ring to JSONL.
    TraceDump,
    /// `privtopk chaos run` — seeded chaos schedule against a standing
    /// service, with a bit-identity check and a healing-cost report.
    ChaosRun,
    /// `privtopk privacy report <files...>` — privacy-accounting report
    /// over collected traces.
    PrivacyReport,
    /// `privtopk store init` — create empty persistent node stores.
    StoreInit,
    /// `privtopk store ingest` — stream synthetic rows into stores.
    StoreIngest,
    /// `privtopk store compact` — rewrite store logs to live rows only.
    StoreCompact,
    /// `privtopk help`
    Help,
}

/// Parsed command line: the subcommand plus `--flag value` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Arguments {
    /// The subcommand.
    pub command: Command,
    flags: HashMap<String, String>,
    /// Bare (non-flag) operands, in order. Only the `trace` commands
    /// accept them — file paths make poor `--flag value` pairs — and
    /// every other command still rejects stray tokens.
    positionals: Vec<String>,
}

impl Arguments {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for unknown commands or malformed flags.
    pub fn parse<I, S>(raw: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = raw.into_iter().map(Into::into);
        let command = match iter.next().as_deref() {
            Some("query") => Command::Query { audit: false },
            Some("audit") => Command::Query { audit: true },
            Some("analyze") => Command::Analyze,
            Some("knn") => Command::Knn,
            Some("trace") => match iter.next().as_deref() {
                Some("analyze") => Command::TraceAnalyze,
                Some("watch") => Command::TraceWatch,
                Some("dump") => Command::TraceDump,
                other => {
                    return Err(CliError::UnknownCommand {
                        got: format!("trace {}", other.unwrap_or("")),
                    })
                }
            },
            Some("chaos") => match iter.next().as_deref() {
                Some("run") => Command::ChaosRun,
                other => {
                    return Err(CliError::UnknownCommand {
                        got: format!("chaos {}", other.unwrap_or("")),
                    })
                }
            },
            Some("privacy") => match iter.next().as_deref() {
                Some("report") => Command::PrivacyReport,
                other => {
                    return Err(CliError::UnknownCommand {
                        got: format!("privacy {}", other.unwrap_or("")),
                    })
                }
            },
            Some("store") => match iter.next().as_deref() {
                Some("init") => Command::StoreInit,
                Some("ingest") => Command::StoreIngest,
                Some("compact") => Command::StoreCompact,
                other => {
                    return Err(CliError::UnknownCommand {
                        got: format!("store {}", other.unwrap_or("")),
                    })
                }
            },
            Some("help") | None => Command::Help,
            Some(other) => {
                return Err(CliError::UnknownCommand {
                    got: other.to_string(),
                })
            }
        };
        let accepts_positionals = matches!(
            command,
            Command::TraceAnalyze | Command::TraceWatch | Command::PrivacyReport
        );
        let mut flags = HashMap::new();
        let mut positionals = Vec::new();
        let rest: Vec<String> = iter.collect();
        let mut i = 0;
        while i < rest.len() {
            let token = &rest[i];
            let Some(name) = token.strip_prefix("--") else {
                if accepts_positionals {
                    positionals.push(token.clone());
                    i += 1;
                    continue;
                }
                return Err(CliError::BadFlag {
                    flag: token.clone(),
                });
            };
            // Bare boolean switches take no value.
            if BOOLEAN_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let Some(value) = rest.get(i + 1) else {
                return Err(CliError::BadFlag {
                    flag: token.clone(),
                });
            };
            flags.insert(name.to_string(), value.clone());
            i += 2;
        }
        Ok(Arguments {
            command,
            flags,
            positionals,
        })
    }

    /// Bare operands (trace-file paths for `trace analyze`).
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether a bare boolean switch was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// A string flag with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, flag: &str, default: &'a str) -> &'a str {
        self.flags.get(flag).map_or(default, String::as_str)
    }

    /// An optional string flag.
    #[must_use]
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// A parsed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] if present but unparseable.
    pub fn parse_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue {
                flag: format!("--{flag}"),
                value: v.clone(),
            }),
        }
    }
}

/// The help text printed by `privtopk help`.
#[must_use]
pub fn usage() -> String {
    "privtopk — privacy-preserving top-k queries across private databases\n\
     \n\
     USAGE:\n\
     privtopk query   [--kind max|min|topk|bottomk|kth] [--k K] [--attribute NAME]\n\
     \u{20}                [--csv-dir DIR | --nodes N --rows R --dist uniform|normal|zipf]\n\
     \u{20}                [--epsilon E] [--seed S] [--batch B] [--repeat N --pipeline D]\n\
     \u{20}                [--groups G] [--network memory|tcp] [--trace-out PATH] [--stats]\n\
     privtopk audit   (same flags except --batch; also prints the privacy audit)\n\
     privtopk analyze [--p0 P] [--d D] [--epsilon E] [--rounds R]\n\
     privtopk knn     --query X,Y[,...] [--k K] [--csv-dir DIR | --nodes N]\n\
     \u{20}                (CSV: feature columns + a `label` column)\n\
     privtopk trace analyze FILE... [--json] [--stall-multiplier M]\n\
     \u{20}                [--nodes N --rounds R] [--lop-alert X]\n\
     \u{20}                [--incident-gap-us US] [--bytes-per-frame B]\n\
     privtopk trace watch --addr HOST:PORT [--interval-ms MS] [--count N]\n\
     \u{20}                [--lop-alert X] [--max-misses N]\n\
     privtopk trace dump  --out PATH [--nodes N] [--k K] [--queries Q] [--seed S]\n\
     privtopk chaos run   [--nodes N] [--k K] [--incidents I] [--seed S]\n\
     \u{20}                [--pipeline D] [--json] [--flight-out PATH]\n\
     privtopk privacy report FILE... [--json] [--k K] [--trials T] [--seed S]\n\
     privtopk store init    --store-dir DIR --nodes N [--domain-min LO --domain-max HI]\n\
     privtopk store ingest  --store-dir DIR --nodes N --rows R [--dist uniform|normal|zipf]\n\
     \u{20}                [--seed S] [--chunk C]\n\
     privtopk store compact --store-dir DIR\n\
     privtopk help\n\
     \n\
     every command also accepts --threads N: worker threads for the\n\
     experiment layer's trial executor (0 = all cores; results are\n\
     identical for any value, only wall-clock time changes).\n\
     \n\
     query over CSV: --csv-dir must contain one <name>.csv per participant\n\
     (header row with column names; integer cells).\n\
     \n\
     --batch B runs B copies of the query as one batched ring execution\n\
     (per-query seeds derived from --seed; results match B solo runs).\n\
     \n\
     --repeat N answers the query N times through one persistent service\n\
     (long-lived node workers, standing ring); --pipeline D keeps up to D\n\
     queries in flight at once. Per-query seeds are derived from --seed\n\
     and every result matches its solo run bit for bit.\n\
     \n\
     --groups G (with --kind max) runs the Section 4.2 group-parallel\n\
     optimization: G subrings then a leader ring, reporting the critical\n\
     path alongside total messages (needs G = 1 or G >= 3, nodes >= 3G).\n\
     \n\
     --network memory|tcp runs the query over a wire instead of the\n\
     in-process simulation: node workers on one thread passing encoded\n\
     frames through one in-memory queue, or one thread per node over TCP\n\
     loopback; results are bit-identical either way.\n\
     \n\
     telemetry (query command): --trace-out PATH writes a JSONL span trace\n\
     (protocol coordinates and timings only — never data values) and\n\
     --stats prints per-phase latency quantiles, counters, and — for\n\
     --repeat runs — the live service pipeline figures. Tracing never\n\
     changes results or transcripts. --metrics-addr HOST:PORT (with\n\
     --repeat) additionally serves live Prometheus metrics while the\n\
     service runs.\n\
     \n\
     trace analyze merges one or more JSONL trace files (per-node or\n\
     combined) into a causally ordered view, reconstructs each query's\n\
     critical path (encode/send/recv/step/queue per hop), and reports\n\
     stalls, per-node load skew and retransmissions. --nodes/--rounds\n\
     validate the chains against the ring topology; --json emits the\n\
     machine-readable twin of the text report; --stall-multiplier M\n\
     flags hops slower than M x the query's median hop (default 3).\n\
     \n\
     trace watch polls a service's --metrics-addr endpoint every\n\
     --interval-ms (default 1000), printing each scrape's samples;\n\
     --count N stops after N polls (default 0 = forever).\n\
     \n\
     privacy accounting: a standing service (--repeat) folds every\n\
     query's protocol coordinates — never data values — into live\n\
     per-node LoP estimates served on --metrics-addr. privacy report\n\
     re-derives the same estimates offline from trace files (ring size\n\
     and rounds are inferred from the chains; --k, --trials and --seed\n\
     tune the shadow estimation). --lop-alert X adds a privacy panel to\n\
     trace analyze, and makes trace watch flag any scrape whose worst\n\
     per-node LoP gauge exceeds X.\n\
     \n\
     chaos run executes a seeded schedule of incidents — node crash,\n\
     ring partition, sustained loss — against a standing service while\n\
     a query workload flows, then proves every answer bit-identical to\n\
     a fault-free run and prints the analyzer's per-incident healing\n\
     cost (detect -> retransmit storm -> steady state, per node).\n\
     --incidents I schedules I windows (default 2); --flight-out PATH\n\
     also dumps the flight recorder's recent spans as JSONL.\n\
     \n\
     trace dump runs a short standing-service workload and writes the\n\
     recorder's event ring — the newest 4,096 spans, kept even when\n\
     full tracing is off — to --out as JSONL, ready for\n\
     trace analyze. trace watch retries transient scrape failures with\n\
     bounded backoff, giving up after --max-misses consecutive misses\n\
     (default 3), and prints SLO burn-rate alert lines whenever the\n\
     scraped privtopk_slo_* gauges say an objective is burning.\n\
     \n\
     store init/ingest/compact manage persistent per-node stores\n\
     (append-only log + incremental top-k candidate index) under\n\
     --store-dir, one subdirectory per node. ingest streams synthetic\n\
     rows in chunks of --chunk (default 65536) so memory stays bounded\n\
     at any --rows. query accepts --store-dir in place of synthetic\n\
     data: with --repeat the standing service answers from per-node\n\
     snapshots, and --write-rate W inserts W rows/sec of background\n\
     writes during the run without perturbing any transcript.\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commands() {
        assert_eq!(
            Arguments::parse(["query"]).unwrap().command,
            Command::Query { audit: false }
        );
        assert_eq!(
            Arguments::parse(["audit"]).unwrap().command,
            Command::Query { audit: true }
        );
        assert_eq!(
            Arguments::parse(["analyze"]).unwrap().command,
            Command::Analyze
        );
        assert_eq!(Arguments::parse(["knn"]).unwrap().command, Command::Knn);
        assert_eq!(Arguments::parse(["help"]).unwrap().command, Command::Help);
        assert_eq!(
            Arguments::parse(Vec::<String>::new()).unwrap().command,
            Command::Help
        );
        assert!(Arguments::parse(["frobnicate"]).is_err());
    }

    #[test]
    fn parses_flags() {
        let args = Arguments::parse(["query", "--k", "5", "--kind", "topk"]).unwrap();
        assert_eq!(args.get_or("kind", "max"), "topk");
        assert_eq!(args.parse_or("k", 1usize).unwrap(), 5);
        assert_eq!(args.parse_or("nodes", 4usize).unwrap(), 4);
        assert_eq!(args.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(Arguments::parse(["query", "k", "5"]).is_err());
        assert!(Arguments::parse(["query", "--k"]).is_err());
        let args = Arguments::parse(["query", "--k", "banana"]).unwrap();
        assert!(args.parse_or("k", 1usize).is_err());
    }

    #[test]
    fn boolean_switches_take_no_value() {
        let args = Arguments::parse(["query", "--stats", "--k", "3"]).unwrap();
        assert!(args.has("stats"));
        assert_eq!(args.parse_or("k", 1usize).unwrap(), 3);
        // Trailing switch needs no value either.
        let args = Arguments::parse(["query", "--k", "3", "--stats"]).unwrap();
        assert!(args.has("stats"));
        assert!(!Arguments::parse(["query"]).unwrap().has("stats"));
    }

    #[test]
    fn chaos_and_trace_dump_subcommands_parse() {
        assert_eq!(
            Arguments::parse(["chaos", "run", "--incidents", "2"])
                .unwrap()
                .command,
            Command::ChaosRun
        );
        let dump = Arguments::parse(["trace", "dump", "--out", "x.jsonl"]).unwrap();
        assert_eq!(dump.command, Command::TraceDump);
        assert_eq!(dump.get("out"), Some("x.jsonl"));
        assert!(Arguments::parse(["chaos", "break"]).is_err());
        assert!(Arguments::parse(["chaos"]).is_err());
    }

    #[test]
    fn usage_mentions_all_commands() {
        let u = usage();
        for cmd in [
            "query",
            "audit",
            "analyze",
            "knn",
            "trace analyze",
            "trace watch",
            "trace dump",
            "chaos run",
            "privacy report",
            "store init",
            "store ingest",
            "store compact",
            "help",
        ] {
            assert!(u.contains(cmd), "usage misses `{cmd}`");
        }
    }

    #[test]
    fn trace_commands_take_positionals_and_flags() {
        let args = Arguments::parse(["trace", "analyze", "a.jsonl", "b.jsonl", "--json"]).unwrap();
        assert_eq!(args.command, Command::TraceAnalyze);
        assert_eq!(args.positionals(), ["a.jsonl", "b.jsonl"]);
        assert!(args.has("json"));
        // Positionals and flags interleave; order of files is kept.
        let args = Arguments::parse([
            "trace",
            "analyze",
            "x.jsonl",
            "--stall-multiplier",
            "5",
            "y.jsonl",
        ])
        .unwrap();
        assert_eq!(args.positionals(), ["x.jsonl", "y.jsonl"]);
        assert_eq!(args.parse_or("stall-multiplier", 3.0).unwrap(), 5.0);
        let args =
            Arguments::parse(["trace", "watch", "--addr", "127.0.0.1:9", "--count", "2"]).unwrap();
        assert_eq!(args.command, Command::TraceWatch);
        assert_eq!(args.get("addr"), Some("127.0.0.1:9"));
        // Unknown trace subcommands are rejected, and other commands
        // still refuse bare tokens.
        assert!(Arguments::parse(["trace"]).is_err());
        assert!(Arguments::parse(["trace", "frobnicate"]).is_err());
        assert!(Arguments::parse(["query", "a.jsonl"]).is_err());
    }

    #[test]
    fn privacy_report_takes_positionals_and_flags() {
        let args =
            Arguments::parse(["privacy", "report", "a.jsonl", "--json", "--k", "2"]).unwrap();
        assert_eq!(args.command, Command::PrivacyReport);
        assert_eq!(args.positionals(), ["a.jsonl"]);
        assert!(args.has("json"));
        assert_eq!(args.parse_or("k", 1usize).unwrap(), 2);
        assert!(Arguments::parse(["privacy"]).is_err());
        assert!(Arguments::parse(["privacy", "frobnicate"]).is_err());
    }

    #[test]
    fn store_subcommands_parse() {
        let args =
            Arguments::parse(["store", "init", "--store-dir", "/tmp/s", "--nodes", "4"]).unwrap();
        assert_eq!(args.command, Command::StoreInit);
        assert_eq!(args.get("store-dir"), Some("/tmp/s"));
        assert_eq!(
            Arguments::parse(["store", "ingest", "--rows", "100"])
                .unwrap()
                .command,
            Command::StoreIngest
        );
        assert_eq!(
            Arguments::parse(["store", "compact", "--store-dir", "d"])
                .unwrap()
                .command,
            Command::StoreCompact
        );
        assert!(Arguments::parse(["store"]).is_err());
        assert!(Arguments::parse(["store", "frobnicate"]).is_err());
        // Store commands take no bare positionals.
        assert!(Arguments::parse(["store", "init", "stray"]).is_err());
    }
}

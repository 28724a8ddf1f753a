//! `catnap-sim` — command-line front end for the Catnap reproduction.
//!
//! ```text
//! catnap-sim synthetic [--config NAME] [--pattern P] [--load L]
//!                      [--cycles N] [--packet-bits B] [--gating] [--seed S]
//! catnap-sim mix       [--config NAME] [--mix M] [--cycles N] [--gating] [--seed S]
//! catnap-sim list
//! ```
//!
//! Each subcommand accepts only its own flags, each at most once;
//! `--gating` is a switch and every other flag takes a value.
//!
//! Examples:
//!
//! ```text
//! catnap-sim synthetic --config 4NT-128b --gating --pattern transpose --load 0.1
//! catnap-sim mix --config 1NT-512b --mix heavy
//! ```

use catnap_repro::catnap::{MultiNoc, MultiNocConfig};
use catnap_repro::multicore::{System, SystemConfig};
use catnap_repro::power::TechParams;
use catnap_repro::traffic::{SyntheticPattern, SyntheticWorkload, WorkloadMix};
use std::process::ExitCode;

/// The flags of `synthetic`.
const SYNTHETIC_FLAGS: &[&str] = &["config", "gating", "seed", "cycles", "pattern", "load", "packet-bits"];
/// The flags of `mix`.
const MIX_FLAGS: &[&str] = &["config", "gating", "seed", "cycles", "mix"];

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `raw` against the subcommand's flags `allowed`: `--gating`
    /// is the one switch, and every other flag takes a value.
    fn parse(raw: &[String], allowed: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a}"));
            };
            if !allowed.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!("repeated flag --{name}"));
            }
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            match (name == "gating", &value) {
                (true, Some(v)) => return Err(format!("flag --gating takes no value, got {v}")),
                (false, None) => return Err(format!("missing value for --{name}")),
                _ => {}
            }
            flags.push((name.to_string(), value));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }
}

fn config_by_name(name: &str) -> Option<MultiNocConfig> {
    match name {
        "1NT-512b" => Some(MultiNocConfig::single_noc_512b()),
        "1NT-128b" => Some(MultiNocConfig::single_noc_128b()),
        "2NT-256b" => Some(MultiNocConfig::bandwidth_equivalent(2)),
        "4NT-128b" => Some(MultiNocConfig::catnap_4x128()),
        "8NT-64b" => Some(MultiNocConfig::bandwidth_equivalent(8)),
        "64core-1NT-256b" => Some(MultiNocConfig::single_noc_256b_64core()),
        "64core-2NT-128b" => Some(MultiNocConfig::catnap_2x128_64core()),
        _ => None,
    }
}

fn pattern_by_name(name: &str) -> Option<SyntheticPattern> {
    match name {
        "uniform" | "uniform-random" => Some(SyntheticPattern::UniformRandom),
        "transpose" => Some(SyntheticPattern::Transpose),
        "bit-complement" | "bitcomp" => Some(SyntheticPattern::BitComplement),
        "tornado" => Some(SyntheticPattern::Tornado),
        "neighbor" => Some(SyntheticPattern::NeighborExchange),
        _ => None,
    }
}

fn mix_by_name(name: &str) -> Option<WorkloadMix> {
    match name.to_ascii_lowercase().as_str() {
        "light" => Some(WorkloadMix::Light),
        "medium-light" | "ml" => Some(WorkloadMix::MediumLight),
        "medium-heavy" | "mh" => Some(WorkloadMix::MediumHeavy),
        "heavy" => Some(WorkloadMix::Heavy),
        _ => None,
    }
}

fn usage() {
    eprintln!(
        "usage: catnap-sim <synthetic|mix|list> [options]\n\
         \n\
         synthetic: --config NAME --pattern P --load L --cycles N --packet-bits B [--gating] --seed S\n\
         mix:       --config NAME --mix light|medium-light|medium-heavy|heavy --cycles N [--gating] --seed S\n\
         list:      show available configurations, patterns and mixes"
    );
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        usage();
        return Err("missing subcommand".into());
    };
    let allowed: &[&str] = match cmd.as_str() {
        "synthetic" => SYNTHETIC_FLAGS,
        "mix" => MIX_FLAGS,
        "list" => &[],
        other => {
            usage();
            return Err(format!("unknown subcommand {other}"));
        }
    };
    let args = Args::parse(&argv[1..], allowed)?;
    let tech = TechParams::catnap_32nm();

    let mut cfg = {
        let name = args.get("config").unwrap_or("4NT-128b");
        config_by_name(name).ok_or_else(|| format!("unknown config {name} (try `catnap-sim list`)"))?
    };
    if args.has("gating") {
        cfg = cfg.gating(true);
    }
    cfg = cfg.seed(args.num("seed", 0xCA7u64)?);
    let cycles: u64 = args.num("cycles", 20_000u64)?;

    match cmd.as_str() {
        "list" => {
            println!("configs:  1NT-512b 1NT-128b 2NT-256b 4NT-128b 8NT-64b 64core-1NT-256b 64core-2NT-128b");
            println!("patterns: uniform transpose bit-complement tornado neighbor");
            println!("mixes:    light medium-light medium-heavy heavy");
            Ok(())
        }
        "synthetic" => {
            let pattern = {
                let p = args.get("pattern").unwrap_or("uniform");
                pattern_by_name(p).ok_or_else(|| format!("unknown pattern {p}"))?
            };
            let load: f64 = args.num("load", 0.05f64)?;
            let bits: u32 = args.num("packet-bits", 512u32)?;
            let seed: u64 = args.num("seed", 42u64)?;
            println!(
                "running {} | {} @ {load} packets/node/cycle, {cycles} cycles",
                cfg.name,
                pattern.name()
            );
            let mut net = MultiNoc::new(cfg);
            let mut wl = SyntheticWorkload::new(pattern, load, bits, net.dims(), seed);
            for _ in 0..cycles {
                wl.drive(&mut net);
                net.step();
            }
            let power = net.power_report(tech);
            let rep = net.finish();
            println!(
                "delivered {} packets | latency {:.1} cy | accepted {:.3} pkts/node/cy",
                rep.packets_delivered, rep.avg_packet_latency, rep.accepted_packets_per_node_cycle
            );
            println!(
                "power: dynamic {:.2} W + static {:.2} W = {:.2} W | CSC {:.1}%",
                power.dynamic.total(),
                power.static_.total(),
                power.total(),
                power.csc_fraction * 100.0
            );
            println!(
                "subnet utilization: {:?}",
                rep.subnet_utilization
                    .iter()
                    .map(|u| format!("{:.0}%", u * 100.0))
                    .collect::<Vec<_>>()
            );
            Ok(())
        }
        "mix" => {
            let mix = {
                let m = args.get("mix").unwrap_or("light");
                mix_by_name(m).ok_or_else(|| format!("unknown mix {m}"))?
            };
            let seed: u64 = args.num("seed", 1u64)?;
            println!("running {} | {} mix, {cycles} cycles, 256 cores", cfg.name, mix.name());
            let mut sys = System::new(SystemConfig::paper(), cfg, mix, seed);
            sys.run(cycles);
            let power = sys.net.power_report(tech);
            let rep = sys.report();
            println!(
                "IPC {:.1} | {} misses | miss latency {:.1} cy | network latency {:.1} cy",
                rep.ipc, rep.misses_completed, rep.avg_miss_latency, rep.network.avg_packet_latency
            );
            println!(
                "power: dynamic {:.2} W + static {:.2} W = {:.2} W | CSC {:.1}%",
                power.dynamic.total(),
                power.static_.total(),
                power.total(),
                power.csc_fraction * 100.0
            );
            Ok(())
        }
        _ => unreachable!("subcommand checked above"),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The `vdsms` command-line tool. See `vdsms-cli`'s crate docs; run
//! `vdsms help` for usage.

use std::process::exit;
use vdsms_cli::{
    eval_attacks, generate, inspect, monitor_streams_opts, sketch, EvalAttacksOpts, GenerateOpts,
    MonitorOpts,
};
use vdsms_core::DetectorConfig;
use vdsms_features::FeatureConfig;
use vdsms_serve::{Client, Daemon, Endpoint, ServeConfig};
use vdsms_workload::serve_sim::{run_sim, verify, Role, SimConfig, SimPlan};
use vdsms_workload::FaultSpec;

const USAGE: &str = "\
vdsms — continuous content-based video copy detection

USAGE:
  vdsms generate [--seed N] [--seconds S] [--width W] [--height H]
                 [--fps F] [--gop G] [--quality Q] [--motifs SEED:COUNT]
                 --out FILE
      Generate a synthetic test video bitstream.

  vdsms inspect FILE
      Print bitstream metadata (resolution, rate, GOP, key frames).

  vdsms sketch [--k K] [--hash-seed S] FILE... --out FILE
      Fingerprint and min-hash query videos into a catalogue file.
      Query ids are assigned 0, 1, ... in argument order.

  vdsms monitor --queries FILE [--k K] [--hash-seed S] [--delta D]
                [--window-keyframes W] [--shards N] [--recover]
                [--inject-faults SPEC] STREAM_FILE...
      Detect copies of catalogued queries in one or more concurrent
      stream bitstreams. --shards N > 1 monitors on N worker threads
      (identical detections, stream files are hash-sharded onto workers).
      A stream that fails to open or dies mid-monitoring is reported on
      stderr and skipped; the others keep being monitored (exit code 1
      if any stream failed). --recover resynchronizes past mid-record
      corruption instead of failing the stream. --inject-faults damages
      each stream with seeded faults first (a robustness test harness),
      e.g. SPEC = seed=7,flip=0.02,drop=0.01,delete=0.005,insert=0.005,
      truncate=0.001. Exit codes: 0 clean, 1 stream(s) failed, 2 usage,
      3 monitored to the end but degraded (recovery skipped damage or a
      shard restarted — the reported numbers may undercount).

  vdsms serve --listen tcp:HOST:PORT|unix:PATH [--k K] [--hash-seed S]
              [--delta D] [--window-keyframes W] [--shards N] [--strict]
              [--max-sessions N] [--queue-capacity N] [--initial-credit N]
              [--idle-timeout-ms MS] [--drain-deadline-ms MS]
              [--max-frame-len BYTES]
      Run the subscription daemon: clients subscribe queries, attach
      streams and push bitstream chunks over one socket; detections are
      pushed back asynchronously under credit-based flow control with
      bounded per-session queues (drop-oldest + Lagged accounting).
      Ingest runs in corruption-recovery mode unless --strict. A client
      Shutdown request drains the fleet gracefully; exit 0 on a clean
      drain, 1 if the drain timed out or the engine caught panics.

  vdsms serve-sim --connect tcp:HOST:PORT|unix:PATH [--seed N]
              [--clients N] [--stalled N] [--faulty N] [--disconnect N]
              [--seconds S] [--no-churn] [detector flags]
      Drive a seeded multi-client simulation against a running daemon:
      clean clients must receive detections bit-identical to a serial
      single-stream oracle, stalled readers must lag without blocking
      anyone, fault-injected bitstreams must degrade only themselves,
      and the final Shutdown must drain cleanly. Detector flags must
      match the daemon's. Prints a health snapshot and a per-role
      summary; exit 0 when every contract holds, 1 otherwise. The run
      shuts the daemon down at the end.

  vdsms eval-attacks [--seed N] [--profile smoke|quick|default]
                     [--attacks LIST] [--detectors LIST] [--json]
                     [--out FILE] [--check FLOORS.json]
      Run the seeded attack × detector robustness matrix: compose one
      evaluation stream per attack (speed change, frame drops,
      clip-in-clip, crop, re-encode chain, ...), sweep the detector
      variants over it, and report recall/precision per cell. LIST is
      comma-separated: attacks as kind or kind:strength (e.g.
      speed-up:heavy,crop), detectors from seq,geo,seq-noindex,
      geo-noindex. --check compares every cell against the committed
      floors and exits 1 on any regression. Deterministic per --seed.

Sketching and monitoring must use the same --k and --hash-seed.
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i).unwrap_or_else(|| fail(&format!("{flag} needs a value"))).as_str()
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| fail(&format!("invalid value for {flag}: {s}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { fail("no subcommand") };
    match cmd.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "inspect" => cmd_inspect(&args[1..]),
        "sketch" => cmd_sketch(&args[1..]),
        "monitor" => cmd_monitor(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "serve-sim" => cmd_serve_sim(&args[1..]),
        "eval-attacks" => cmd_eval_attacks(&args[1..]),
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => fail(&format!("unknown subcommand {other}")),
    }
}

fn cmd_generate(args: &[String]) {
    let mut opts = GenerateOpts::default();
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => opts.seed = parse(take_value(args, &mut i, "--seed"), "--seed"),
            "--seconds" => opts.seconds = parse(take_value(args, &mut i, "--seconds"), "--seconds"),
            "--width" => opts.width = parse(take_value(args, &mut i, "--width"), "--width"),
            "--height" => opts.height = parse(take_value(args, &mut i, "--height"), "--height"),
            "--fps" => opts.fps = parse(take_value(args, &mut i, "--fps"), "--fps"),
            "--gop" => opts.gop = parse(take_value(args, &mut i, "--gop"), "--gop"),
            "--quality" => opts.quality = parse(take_value(args, &mut i, "--quality"), "--quality"),
            "--motifs" => {
                let v = take_value(args, &mut i, "--motifs");
                let (seed, count) =
                    v.split_once(':').unwrap_or_else(|| fail("--motifs wants SEED:COUNT"));
                opts.motifs = Some((parse(seed, "--motifs"), parse(count, "--motifs")));
            }
            "--out" => out = Some(take_value(args, &mut i, "--out").to_string()),
            other => fail(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let Some(out) = out else { fail("generate needs --out FILE") };
    match generate(&opts) {
        Ok(bytes) => {
            std::fs::write(&out, &bytes).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
            eprintln!("wrote {} bytes to {out}", bytes.len());
        }
        Err(e) => fail(&e.message),
    }
}

fn cmd_inspect(args: &[String]) {
    let Some(path) = args.first() else { fail("inspect needs a FILE") };
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    match inspect(&bytes) {
        Ok(report) => print!("{report}"),
        Err(e) => fail(&e.message),
    }
}

fn detector_flags(
    args: &[String],
    i: &mut usize,
    cfg: &mut DetectorConfig,
) -> bool {
    match args[*i].as_str() {
        "--k" => cfg.k = parse(take_value(args, i, "--k"), "--k"),
        "--hash-seed" => cfg.hash_seed = parse(take_value(args, i, "--hash-seed"), "--hash-seed"),
        "--delta" => cfg.delta = parse(take_value(args, i, "--delta"), "--delta"),
        "--window-keyframes" => {
            cfg.window_keyframes =
                parse(take_value(args, i, "--window-keyframes"), "--window-keyframes")
        }
        "--shards" => {
            cfg.shards = parse(take_value(args, i, "--shards"), "--shards");
            if cfg.shards == 0 {
                fail("--shards must be >= 1");
            }
        }
        _ => return false,
    }
    true
}

fn cmd_sketch(args: &[String]) {
    let mut cfg = DetectorConfig::default();
    let mut files: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if detector_flags(args, &mut i, &mut cfg) {
        } else if args[i] == "--out" {
            out = Some(take_value(args, &mut i, "--out").to_string());
        } else if args[i].starts_with('-') {
            fail(&format!("unknown flag {}", args[i]));
        } else {
            files.push(args[i].clone());
        }
        i += 1;
    }
    let Some(out) = out else { fail("sketch needs --out FILE") };
    if files.is_empty() {
        fail("sketch needs at least one query FILE");
    }
    let inputs: Vec<(u32, Vec<u8>)> = files
        .iter()
        .enumerate()
        .map(|(id, path)| {
            let bytes =
                std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
            (id as u32, bytes)
        })
        .collect();
    match sketch(&inputs, &cfg, &FeatureConfig::default()) {
        Ok(bytes) => {
            std::fs::write(&out, &bytes).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
            eprintln!("sketched {} queries into {out} ({} bytes)", inputs.len(), bytes.len());
        }
        Err(e) => fail(&e.message),
    }
}

fn cmd_monitor(args: &[String]) {
    let mut cfg = DetectorConfig::default();
    let mut opts = MonitorOpts::default();
    let mut queries: Option<String> = None;
    let mut streams: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if detector_flags(args, &mut i, &mut cfg) {
        } else if args[i] == "--queries" {
            queries = Some(take_value(args, &mut i, "--queries").to_string());
        } else if args[i] == "--recover" {
            opts.recover = true;
        } else if args[i] == "--inject-faults" {
            let spec = take_value(args, &mut i, "--inject-faults");
            opts.faults =
                Some(FaultSpec::parse(spec).unwrap_or_else(|e| fail(&format!("--inject-faults: {e}"))));
        } else if args[i].starts_with('-') {
            fail(&format!("unknown flag {}", args[i]));
        } else {
            streams.push(args[i].clone());
        }
        i += 1;
    }
    let Some(queries) = queries else { fail("monitor needs --queries FILE") };
    if streams.is_empty() {
        fail("monitor needs at least one STREAM_FILE");
    }
    let qbytes =
        std::fs::read(&queries).unwrap_or_else(|e| fail(&format!("read {queries}: {e}")));
    // A stream file that cannot be read is a failed stream, not a fatal
    // error — it is reported alongside mid-stream failures below. An
    // empty byte buffer has no valid header, so the library rejects it
    // per stream with the right bookkeeping.
    let sbytes: Vec<Vec<u8>> = streams
        .iter()
        .map(|path| {
            std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("warning: read {path}: {e}");
                Vec::new()
            })
        })
        .collect();
    let slices: Vec<&[u8]> = sbytes.iter().map(Vec::as_slice).collect();
    match monitor_streams_opts(&slices, &qbytes, &cfg, &FeatureConfig::default(), &opts) {
        Ok(outcome) => {
            if outcome.hits.is_empty() {
                println!("no copies detected");
            }
            for h in &outcome.hits {
                println!(
                    "stream {}\tquery {}\tframes {}..{}\tsimilarity {:.3}",
                    streams[h.stream_id as usize],
                    h.query_id,
                    h.start_frame,
                    h.end_frame,
                    h.similarity
                );
            }
            for r in &outcome.reports {
                let path = &streams[r.stream_id as usize];
                if let Some(err) = &r.error {
                    eprintln!("stream {path}: FAILED — {err}");
                } else if !r.health.is_clean() || r.faulted_records > 0 {
                    eprintln!(
                        "stream {path}: degraded — {} frame(s) dropped, {} byte(s) skipped, {} resync(s), {} record(s) fault-injected",
                        r.health.frames_dropped,
                        r.health.bytes_skipped,
                        r.health.resyncs,
                        r.faulted_records,
                    );
                }
            }
            let failed = outcome.failed();
            if failed > 0 {
                eprintln!("{failed} of {} stream(s) failed", streams.len());
                exit(1);
            }
            if outcome.degraded() {
                eprintln!(
                    "monitoring degraded: the detections above may undercount the true streams"
                );
                exit(3);
            }
        }
        Err(e) => fail(&e.message),
    }
}

fn parse_endpoint(s: &str) -> Endpoint {
    if let Some(addr) = s.strip_prefix("tcp:") {
        Endpoint::Tcp(addr.to_string())
    } else if let Some(path) = s.strip_prefix("unix:") {
        Endpoint::Unix(std::path::PathBuf::from(path))
    } else {
        fail("endpoint must be tcp:HOST:PORT or unix:PATH")
    }
}

fn cmd_serve(args: &[String]) {
    let mut cfg = ServeConfig::default();
    let mut listen: Option<Endpoint> = None;
    let mut i = 0;
    while i < args.len() {
        if detector_flags(args, &mut i, &mut cfg.detector) {
        } else {
            match args[i].as_str() {
                "--listen" => listen = Some(parse_endpoint(take_value(args, &mut i, "--listen"))),
                "--strict" => cfg.recover = false,
                "--max-sessions" => {
                    cfg.max_sessions =
                        parse(take_value(args, &mut i, "--max-sessions"), "--max-sessions")
                }
                "--queue-capacity" => {
                    cfg.queue_capacity =
                        parse(take_value(args, &mut i, "--queue-capacity"), "--queue-capacity")
                }
                "--initial-credit" => {
                    cfg.initial_credit =
                        parse(take_value(args, &mut i, "--initial-credit"), "--initial-credit")
                }
                "--idle-timeout-ms" => {
                    cfg.idle_timeout_ms =
                        parse(take_value(args, &mut i, "--idle-timeout-ms"), "--idle-timeout-ms")
                }
                "--drain-deadline-ms" => {
                    cfg.drain_deadline_ms = parse(
                        take_value(args, &mut i, "--drain-deadline-ms"),
                        "--drain-deadline-ms",
                    )
                }
                "--max-frame-len" => {
                    cfg.max_frame_len =
                        parse(take_value(args, &mut i, "--max-frame-len"), "--max-frame-len")
                }
                other => fail(&format!("unknown flag {other}")),
            }
        }
        i += 1;
    }
    let Some(listen) = listen else { fail("serve needs --listen tcp:HOST:PORT or unix:PATH") };
    let daemon = Daemon::bind(&listen, cfg)
        .unwrap_or_else(|e| fail(&format!("cannot bind {listen:?}: {e}")));
    eprintln!("vdsms serve: listening on {}", daemon.local_addr());
    let report = daemon.run();
    eprintln!(
        "vdsms serve: drained — {} session(s) served, {} detection(s) pushed",
        report.sessions_served, report.detections_pushed
    );
    if report.stats.is_degraded() {
        eprintln!(
            "vdsms serve: degraded — {} frame(s) dropped, {} byte(s) skipped, {} resync(s), {} shard restart(s), {} frame(s) lost",
            report.stats.frames_dropped,
            report.stats.bytes_skipped,
            report.stats.resyncs,
            report.stats.shard_restarts,
            report.stats.frames_lost,
        );
    }
    if report.drain_timed_out || report.engine_panics > 0 {
        eprintln!(
            "vdsms serve: UNCLEAN exit — drain timed out: {}, engine panics: {}",
            report.drain_timed_out, report.engine_panics
        );
        exit(1);
    }
}

fn cmd_serve_sim(args: &[String]) {
    let mut sim = SimConfig::default();
    let mut connect: Option<Endpoint> = None;
    let mut i = 0;
    while i < args.len() {
        if detector_flags(args, &mut i, &mut sim.detector) {
        } else {
            match args[i].as_str() {
                "--connect" => {
                    connect = Some(parse_endpoint(take_value(args, &mut i, "--connect")))
                }
                "--seed" => sim.seed = parse(take_value(args, &mut i, "--seed"), "--seed"),
                "--clients" => {
                    sim.clients = parse(take_value(args, &mut i, "--clients"), "--clients")
                }
                "--stalled" => {
                    sim.stalled = parse(take_value(args, &mut i, "--stalled"), "--stalled")
                }
                "--faulty" => sim.faulty = parse(take_value(args, &mut i, "--faulty"), "--faulty"),
                "--disconnect" => {
                    sim.disconnect = parse(take_value(args, &mut i, "--disconnect"), "--disconnect")
                }
                "--seconds" => {
                    sim.seconds = parse(take_value(args, &mut i, "--seconds"), "--seconds")
                }
                "--no-churn" => sim.churn = false,
                other => fail(&format!("unknown flag {other}")),
            }
        }
        i += 1;
    }
    let Some(connect) = connect else {
        fail("serve-sim needs --connect tcp:HOST:PORT or unix:PATH")
    };
    if sim.stalled + sim.faulty + sim.disconnect > sim.clients {
        fail("--stalled + --faulty + --disconnect must not exceed --clients");
    }
    eprintln!(
        "vdsms serve-sim: building {}-client plan (seed {})...",
        sim.clients, sim.seed
    );
    let plan = SimPlan::build(sim);
    let report = run_sim(&plan, || match &connect {
        Endpoint::Tcp(addr) => Client::connect_tcp(addr),
        Endpoint::Unix(path) => Client::connect_unix(path),
    });
    if let Some(h) = &report.health {
        println!(
            "health: {} session(s), {} stream(s), {} query(s), {} detection(s), {} resync(s), {} frame(s) dropped, {} degraded stream(s)",
            h.sessions, h.streams, h.queries, h.detections, h.resyncs, h.frames_dropped,
            h.degraded_streams,
        );
    }
    for o in &report.outcomes {
        let cp = &plan.clients[o.index];
        println!(
            "client {:>3} {:10}: {} detection(s) (oracle {}), lagged {}, drained {}",
            o.index,
            format!("{:?}", o.role),
            o.detections.len(),
            cp.expected.len(),
            o.lagged,
            o.drained,
        );
    }
    let problems = verify(&plan, &report);
    for p in &problems {
        eprintln!("FAIL: {p}");
    }
    let lagged_total: u64 = report
        .outcomes
        .iter()
        .filter(|o| o.role == Role::Stalled)
        .map(|o| o.lagged)
        .sum();
    if problems.is_empty() {
        println!(
            "serve-sim OK: {} client(s), stalled lag {} accounted, daemon drained",
            plan.clients.len(),
            lagged_total
        );
    } else {
        eprintln!("serve-sim FAILED: {} contract violation(s)", problems.len());
        exit(1);
    }
}

fn cmd_eval_attacks(args: &[String]) {
    let mut opts = EvalAttacksOpts::default();
    let mut out: Option<String> = None;
    let mut i = 0;
    let split = |v: &str| -> Vec<String> {
        v.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => opts.seed = parse(take_value(args, &mut i, "--seed"), "--seed"),
            "--profile" => opts.profile = take_value(args, &mut i, "--profile").to_string(),
            "--attacks" => opts.attacks = Some(split(take_value(args, &mut i, "--attacks"))),
            "--detectors" => {
                opts.detectors = Some(split(take_value(args, &mut i, "--detectors")))
            }
            "--json" => opts.json = true,
            "--out" => out = Some(take_value(args, &mut i, "--out").to_string()),
            "--check" => {
                let path = take_value(args, &mut i, "--check");
                let floors = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
                opts.check = Some(floors);
            }
            other => fail(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    match eval_attacks(&opts) {
        Ok(outcome) => {
            if let Some(path) = out {
                std::fs::write(&path, outcome.report.to_json())
                    .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
                eprintln!("wrote matrix report to {path}");
            }
            print!("{}", outcome.output);
            if !outcome.failures.is_empty() {
                eprintln!("floor check FAILED:");
                for f in &outcome.failures {
                    eprintln!("  {f}");
                }
                exit(1);
            } else if opts.check.is_some() {
                eprintln!("floor check passed");
            }
        }
        Err(e) => fail(&e.message),
    }
}

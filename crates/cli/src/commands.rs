//! The `vbp` subcommands. Every command renders its report into a
//! `String` (so tests can assert on output) and performs file IO only
//! where flags request it.

use std::fmt::Write as _;

use variantdbscan::{
    simulate, Engine, EngineConfig, ReuseScheme, RunRequest, Scheduler, SimCostModel, TraceLevel,
    VariantSet,
};
use vbp_data::DatasetSpec;
use vbp_dbscan::{dbscan, suggest_eps, DbscanParams};
use vbp_geom::Point2;
use vbp_rtree::{PackedRTree, SpatialIndex};

use crate::args::Args;

/// Loads points either from a Table I dataset name (`--dataset`, with
/// optional `@size`) or from a file (`--input`, CSV or binary).
pub fn load_points(args: &Args) -> Result<(String, Vec<Point2>), String> {
    match (args.get("dataset"), args.get("input")) {
        (Some(name), None) => {
            let spec = DatasetSpec::by_name(name)
                .ok_or_else(|| format!("unknown dataset '{name}' (see `vbp datasets`)"))?;
            Ok((spec.name(), spec.generate()))
        }
        (None, Some(path)) => {
            let pts = vbp_data::io::load(path).map_err(|e| format!("{path}: {e}"))?;
            Ok((path.to_string(), pts))
        }
        (Some(_), Some(_)) => Err("--dataset and --input are mutually exclusive".into()),
        (None, None) => Err("one of --dataset or --input is required".into()),
    }
}

/// `vbp datasets` — list the Table I catalog.
pub fn datasets() -> String {
    let mut out = String::from("Table I datasets (append @<size> to scale):\n");
    for spec in vbp_data::table1() {
        let noise = spec
            .noise_fraction()
            .map_or("N/A".into(), |f| format!("{}%", (f * 100.0) as u32));
        let _ = writeln!(
            out,
            "  {:<14} {:>10} points, noise {}",
            spec.name(),
            spec.size(),
            noise
        );
    }
    out
}

/// `vbp generate --dataset <name> --out <file>` — materialize a dataset.
pub fn generate(args: &Args) -> Result<String, String> {
    let (name, points) = load_points(args)?;
    let out = args.require("out")?;
    vbp_data::io::save(out, &points).map_err(|e| format!("{out}: {e}"))?;
    Ok(format!(
        "wrote {} ({} points) to {}",
        name,
        points.len(),
        out
    ))
}

/// `vbp info` — dataset statistics and a data-driven ε suggestion.
pub fn info(args: &Args) -> Result<String, String> {
    let (name, points) = load_points(args)?;
    let mut out = String::new();
    let _ = writeln!(out, "dataset {name}: {} points", points.len());
    if let Some(extent) = vbp_geom::Extent::of_points(&points) {
        let _ = writeln!(
            out,
            "extent [{:.3}, {:.3}] × [{:.3}, {:.3}], mean density {:.4} pts/unit²",
            extent.mbb().min.x,
            extent.mbb().max.x,
            extent.mbb().min.y,
            extent.mbb().max.y,
            extent.mean_density(points.len())
        );
    }
    if !points.is_empty() {
        let minpts = args.minpts()?;
        let (tree, _) = PackedRTree::build(&points, 80);
        let stride = (points.len() / 2_000).max(1);
        if let Some(eps) = suggest_eps(&tree, minpts, stride) {
            let _ = writeln!(
                out,
                "k-distance knee (minpts = {minpts}): suggested ε ≈ {eps:.4}"
            );
        }
        let _ = writeln!(out, "index: {}", tree.stats());
    }
    Ok(out)
}

/// `vbp cluster --eps E --minpts M` — one DBSCAN run.
pub fn cluster(args: &Args) -> Result<String, String> {
    let (name, points) = load_points(args)?;
    let eps = args.eps()?;
    let minpts = args.minpts()?;
    let r = args.r()?;
    let (tree, perm) = PackedRTree::build(&points, r);
    let t0 = std::time::Instant::now();
    let result = dbscan(&tree, DbscanParams::new(eps, minpts));
    let elapsed = t0.elapsed();

    if let Some(out) = args.get("out") {
        write_labeled_csv(out, tree.points(), &perm, result.labels())?;
    }

    let mut s = String::new();
    let _ = writeln!(
        s,
        "{name}: ε = {eps}, minpts = {minpts}, r = {r} → {} clusters, {} noise ({:.1}% clustered) in {:.1} ms",
        result.num_clusters(),
        result.noise_count(),
        result.clustered_fraction() * 100.0,
        elapsed.as_secs_f64() * 1e3
    );
    let mut sizes: Vec<usize> = result.iter_clusters().map(|(_, m)| m.len()).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let preview: Vec<String> = sizes.iter().take(10).map(|s| s.to_string()).collect();
    let _ = writeln!(s, "largest clusters: [{}]", preview.join(", "));

    if args.has("render") {
        // Reconstruct caller-order labels for the map.
        let mut labels = vec![0u32; perm.len()];
        for (tree_idx, &orig) in perm.iter().enumerate() {
            labels[orig as usize] = result.labels().raw(tree_idx as u32);
        }
        let _ = writeln!(s, "cluster map ('·' = noise):");
        for row in vbp_data::render::render_clusters(&points, &labels, 72, 20) {
            let _ = writeln!(s, "  {row}");
        }
    }
    Ok(s)
}

/// `vbp sweep --eps E1,E2 --minpts M1,M2 …` — a VariantDBSCAN run.
pub fn sweep(args: &Args) -> Result<String, String> {
    let (name, points) = load_points(args)?;
    let eps = args.eps_list()?;
    let minpts = args.minpts_list()?;
    let variants = VariantSet::cartesian(&eps, &minpts);
    let config = engine_config(args)?;
    let engine = Engine::new(config);
    let mut request = RunRequest::new(&points, &variants);
    if let Some(policy) = sharding_policy(args)? {
        request = request.sharding(policy);
    }
    let report = engine.execute(&request).map_err(|e| e.to_string())?;

    if args.has("json") {
        return Ok(format!("{}\n", report.to_json()));
    }

    let mut s = String::new();
    let _ = writeln!(
        s,
        "{name}: |V| = {} on {} points, T = {}, r = {}, {} + {}",
        variants.len(),
        points.len(),
        config.threads,
        config.r,
        config.scheduler,
        config.reuse
    );
    if let Some(tune) = &report.tune {
        let sweep: Vec<String> = tune
            .timings
            .iter()
            .map(|(r, t)| format!("r={r}:{:.2}ms", t.as_secs_f64() * 1e3))
            .collect();
        let _ = writeln!(
            s,
            "auto-tuned r = {} over a {}-point sample [{}]",
            report.chosen_r,
            tune.sample_size,
            sweep.join(" ")
        );
    }
    let _ = writeln!(
        s,
        "{:<14} {:>9} {:>9} {:>11} {:>8}  source",
        "variant", "clusters", "noise", "time(ms)", "reused"
    );
    for o in &report.outcomes {
        let _ = writeln!(
            s,
            "{:<14} {:>9} {:>9} {:>11.2} {:>7.1}%  {}",
            o.variant.to_string(),
            o.clusters,
            o.noise,
            o.response_time().as_secs_f64() * 1e3,
            o.fraction_reused() * 100.0,
            o.reused_from()
                .map_or_else(|| "scratch".into(), |v| v.to_string())
        );
    }
    let _ = writeln!(
        s,
        "total {:.1} ms, mean reuse {:.1}%, {} from scratch, makespan slowdown vs lower bound {:.1}%",
        report.total_time.as_secs_f64() * 1e3,
        report.mean_fraction_reused() * 100.0,
        report.from_scratch_count(),
        report.slowdown_vs_lower_bound() * 100.0
    );
    let _ = writeln!(
        s,
        "contention: lock-wait {:.3} ms ({:.2}% of worker time), schedule decisions {:.3} ms, idle {:.1} ms",
        report.total_lock_wait().as_secs_f64() * 1e3,
        report.lock_wait_share() * 100.0,
        report.total_sched_time().as_secs_f64() * 1e3,
        report.total_idle().as_secs_f64() * 1e3
    );
    Ok(s)
}

/// `vbp trace --eps … --minpts … [--level spans|full] [--json]` — a
/// traced VariantDBSCAN run: per-variant flame-style span dump plus the
/// per-phase latency histograms, or the full `RunReport` (trace snapshot
/// embedded) as one JSON line.
pub fn trace(args: &Args) -> Result<String, String> {
    let (name, points) = load_points(args)?;
    let eps = args.eps_list()?;
    let minpts = args.minpts_list()?;
    let variants = VariantSet::cartesian(&eps, &minpts);
    let config = engine_config(args)?;
    let engine = Engine::new(config);
    let level_str = args.get("level").unwrap_or("full");
    let level = TraceLevel::parse(level_str)
        .ok_or_else(|| format!("--level: unknown '{level_str}' (spans|full)"))?;
    if !level.enabled() {
        return Err("--level off records nothing; use spans or full".into());
    }
    let mut request = RunRequest::new(&points, &variants).trace(level);
    if let Some(policy) = sharding_policy(args)? {
        request = request.sharding(policy);
    }
    let report = engine.execute(&request).map_err(|e| e.to_string())?;

    if args.has("json") {
        return Ok(format!("{}\n", report.to_json()));
    }

    let snap = report.trace.as_ref().expect("tracing was requested");
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{name}: traced |V| = {} on {} points at level {} ({} events, {} dropped)",
        variants.len(),
        points.len(),
        level.as_str(),
        snap.records.len(),
        snap.dropped
    );
    s.push_str(&snap.render_text(&variants));
    let _ = writeln!(s, "phase latency (log₂-bucketed upper bounds):");
    for (phase, hist) in report.phases.phases() {
        if hist.is_empty() {
            continue;
        }
        let _ = writeln!(
            s,
            "  {phase:<10} n={:<6} mean={:>10.1}µs p50≤{:>10.1}µs p99≤{:>10.1}µs",
            hist.count(),
            hist.mean_ns() / 1e3,
            hist.quantile_upper_ns(0.5) as f64 / 1e3,
            hist.quantile_upper_ns(0.99) as f64 / 1e3
        );
    }
    Ok(s)
}

/// `vbp metrics [--addr HOST:PORT]` — fetch a running daemon's
/// Prometheus-style text exposition (`METRICS`, protocol version ≥ 2).
pub fn metrics_cmd(args: &Args) -> Result<String, String> {
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = vbp_service::Client::connect(addr).map_err(|e| e.to_string())?;
    let text = client.metrics().map_err(|e| e.to_string())?;
    client.quit();
    Ok(text)
}

/// `vbp simulate --eps … --minpts … --threads T` — analytic scheduling
/// study (no clustering).
pub fn simulate_cmd(args: &Args) -> Result<String, String> {
    let eps = args.eps_list()?;
    let minpts = args.minpts_list()?;
    let threads = args.threads(16)?;
    let variants = VariantSet::cartesian(&eps, &minpts);
    let model = SimCostModel::default();

    let mut s = String::new();
    let _ = writeln!(
        s,
        "simulating |V| = {} on T = {threads} (analytic cost model)",
        variants.len()
    );
    for scheduler in [Scheduler::SchedGreedy, Scheduler::SchedMinpts] {
        let r = simulate(&variants, scheduler, threads, &model);
        let _ = writeln!(
            s,
            "{:<12} makespan {:>9.1}  lower bound {:>9.1}  slowdown {:>5.1}%  scratch {}",
            scheduler.to_string(),
            r.makespan,
            r.lower_bound(),
            r.slowdown_vs_lower_bound() * 100.0,
            r.from_scratch_count()
        );
    }
    Ok(s)
}

/// `vbp suggest` — propose a variant grid around the k-distance knee.
///
/// The paper's §V-B notes that picking ε/minpts is non-trivial; this
/// automates the heuristic it cites: minpts = 4, ε from the knee of the
/// sorted 4-distance plot, with a grid spanning ±50% around it.
pub fn suggest(args: &Args) -> Result<String, String> {
    let (name, points) = load_points(args)?;
    if points.is_empty() {
        return Err("dataset is empty".into());
    }
    let minpts = args.minpts()?;
    let (tree, _) = PackedRTree::build(&points, 80);
    let stride = (points.len() / 2_000).max(1);
    let eps = suggest_eps(&tree, minpts, stride)
        .ok_or_else(|| "could not build a k-distance plot".to_string())?;
    let eps_grid = [eps * 0.5, eps * 0.75, eps, eps * 1.25, eps * 1.5];
    let minpts_grid = [minpts, minpts * 2, minpts * 4];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{name}: k-distance knee at ε ≈ {eps:.4} (minpts = {minpts})"
    );
    let eps_list = eps_grid
        .iter()
        .map(|e| format!("{e:.4}"))
        .collect::<Vec<_>>()
        .join(",");
    let minpts_list = minpts_grid
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let _ = writeln!(
        s,
        "suggested sweep (|V| = {}):",
        eps_grid.len() * minpts_grid.len()
    );
    let source = args
        .get("dataset")
        .map(|d| format!("--dataset {d}"))
        .or_else(|| args.get("input").map(|i| format!("--input {i}")))
        .unwrap_or_default();
    let _ = writeln!(
        s,
        "  vbp sweep {source} --eps {eps_list} --minpts {minpts_list}"
    );
    Ok(s)
}

/// `vbp tune --eps E` — empirical `r` sweep (§V-C's procedure).
pub fn tune(args: &Args) -> Result<String, String> {
    let (name, points) = load_points(args)?;
    let eps = args.eps()?;
    let report = vbp_rtree::tune_r_default(&points, eps);
    let mut s = String::new();
    let _ = writeln!(s, "{name}: ε-query timings by r (ε = {eps}):");
    let max = report
        .timings
        .iter()
        .map(|(_, t)| t.as_secs_f64())
        .fold(0.0f64, f64::max);
    for (r, t) in &report.timings {
        let bar_len = if max > 0.0 {
            ((t.as_secs_f64() / max) * 30.0).round() as usize
        } else {
            0
        };
        let _ = writeln!(
            s,
            "  r={r:<4} {:>9.2} ms {}{}",
            t.as_secs_f64() * 1e3,
            "█".repeat(bar_len),
            if *r == report.best_r {
                "  ← best"
            } else {
                ""
            }
        );
    }
    let _ = writeln!(s, "use: --r {}", report.best_r);
    Ok(s)
}

/// Default bind address shared by `serve` and `submit`.
const DEFAULT_ADDR: &str = "127.0.0.1:7711";

/// Parses the `--datasets a,b,c` list.
fn dataset_list(args: &Args) -> Vec<String> {
    args.get("datasets")
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Builds a registry with every requested dataset prepared.
fn build_registry(engine: &Engine, names: &[String]) -> Result<vbp_service::Registry, String> {
    if names.is_empty() {
        return Err("--datasets: at least one dataset is required".into());
    }
    let registry = vbp_service::Registry::new();
    for name in names {
        registry.load(engine, name)?;
    }
    Ok(registry)
}

/// `vbp serve --datasets NAME[@N],… [--addr HOST:PORT] [--http PORT]
/// [--store DIR]` — run the daemon until a client sends `SHUTDOWN`.
/// With `--http`, an HTTP/1.1 gateway listens alongside the line
/// protocol, against the same admission queue, dispatcher, and
/// dominance cache (`PORT` may be `0` for an ephemeral port, or a full
/// `HOST:PORT`). With `--store`, datasets are restored warm from DIR
/// when valid snapshot files exist (cold-rebuilt otherwise) and the
/// warm state is persisted back on drain.
pub fn serve(args: &Args) -> Result<String, String> {
    let config = engine_config(args)?;
    let engine = Engine::new(config);
    let names = dataset_list(args);
    if names.is_empty() {
        return Err("--datasets: at least one dataset is required".into());
    }
    let store_dir = args.get("store").map(std::path::PathBuf::from);
    let (registry, boot) = match &store_dir {
        Some(dir) => vbp_service::boot_from_store(&engine, &names, dir)?,
        None => (
            build_registry(&engine, &names)?,
            vbp_service::StoreBoot::default(),
        ),
    };
    let loaded: Vec<String> = registry
        .list()
        .into_iter()
        .map(|(n, s)| format!("{n} ({s} points)"))
        .collect();
    // `--http PORT` (bare port binds 127.0.0.1) or `--http HOST:PORT`.
    let http_addr = args.get("http").map(|spec| {
        if spec.contains(':') {
            spec.to_string()
        } else {
            format!("127.0.0.1:{spec}")
        }
    });
    let service = vbp_service::ServiceConfig {
        addr: args.get("addr").unwrap_or(DEFAULT_ADDR).to_string(),
        queue_cap: args.num("queue-cap", 256usize)?,
        cache_bytes: args.num("cache-mb", 64usize)? << 20,
        batch_window: std::time::Duration::from_millis(args.num("batch-ms", 2u64)?),
        shards: args.num("shards", 0usize)?,
        store_dir,
        http_addr,
        ..vbp_service::ServiceConfig::default()
    };
    service.validate().map_err(|e| e.to_string())?;
    let restored = boot.restored;
    let mut handle = vbp_service::Server::start_with_store(engine, registry, service, boot)
        .map_err(|e| e.to_string())?;
    if restored > 0 {
        println!("vbp-store: restored {restored} dataset(s) warm");
    }
    // Announce readiness immediately — scripts parse this line for the
    // resolved (possibly ephemeral) port; the command only returns after
    // the drain completes.
    println!(
        "vbp-service listening on {} with {}",
        handle.local_addr(),
        loaded.join(", ")
    );
    if let Some(http_addr) = handle.http_addr() {
        println!("vbp-service http gateway on {http_addr}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok(format!("drained; final stats: {}\n", handle.stats_json()))
}

/// `vbp route --backends HOST:PORT,… [--http PORT|HOST:PORT]
/// [--vnodes N] [--pool N]` — run the consistent-hash router in front
/// of a fleet of daemons' HTTP gateways, until the process is killed.
/// Every dataset-scoped request is proxied to the backend that owns
/// the dataset on the ring; fleet-wide reads (`/v1/datasets`,
/// `/v1/stats`, `/metrics`, `/healthz`) fan out and merge.
pub fn route(args: &Args) -> Result<String, String> {
    let backends: Vec<String> = args
        .get("backends")
        .map(|list| {
            list.split(',')
                .map(|b| b.trim().to_string())
                .filter(|b| !b.is_empty())
                .collect()
        })
        .unwrap_or_default();
    // `--http PORT` (bare port binds 127.0.0.1) or `--http HOST:PORT`,
    // like `serve`; the router defaults to an ephemeral port.
    let http_addr = match args.get("http") {
        Some(spec) if spec.contains(':') => spec.to_string(),
        Some(spec) => format!("127.0.0.1:{spec}"),
        None => "127.0.0.1:0".to_string(),
    };
    let config = vbp_service::RouterConfig {
        http_addr,
        backends,
        virtual_nodes: args.num("vnodes", 64usize)?,
        pool_per_backend: args.num("pool", 8usize)?,
        ..vbp_service::RouterConfig::default()
    };
    config.validate().map_err(|e| e.to_string())?;
    let backend_count = config.backends.len();
    let mut handle = vbp_service::Router::start(config).map_err(|e| e.to_string())?;
    // Announce readiness immediately — scripts parse this line for the
    // resolved (possibly ephemeral) port.
    println!(
        "vbp-router listening on {} over {backend_count} backend(s)",
        handle.http_addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok(String::new())
}

/// `vbp store inspect FILE` / `vbp store verify DIR` — offline tooling
/// over the daemon's warm-state container files. Takes positional
/// operands, so it is routed around the flag parser in `main`.
pub fn store_cmd(raw: &[String]) -> Result<String, String> {
    match raw {
        [sub, path] if sub == "inspect" => store_inspect(std::path::Path::new(path)),
        [sub, dir] if sub == "verify" => store_verify(std::path::Path::new(dir)),
        _ => Err("usage: vbp store inspect FILE | vbp store verify DIR".into()),
    }
}

/// Dumps one store file: container header, section directory, then the
/// decoded dataset/index/cache summary (or the typed validation error).
fn store_inspect(path: &std::path::Path) -> Result<String, String> {
    use std::io::Read as _;
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut bytes = Vec::new();
    f.take(vbp_store::MAX_FILE_BYTES + 1)
        .read_to_end(&mut bytes)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let container = vbp_store::Container::parse(bytes.clone())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{}: vbp-store container v{}, {} bytes, {} sections",
        path.display(),
        container.version(),
        bytes.len(),
        container.sections().len()
    );
    for info in container.sections() {
        let _ = writeln!(
            s,
            "  section 0x{:04x}: {} bytes, crc32 {:08x}",
            info.id, info.len, info.crc
        );
    }
    let snapshot = vbp_store::DatasetSnapshot::decode(&bytes)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let index = &snapshot.index;
    let _ = writeln!(s, "dataset '{}':", snapshot.meta.name);
    let _ = writeln!(
        s,
        "  {} points, r = {}, fanout = {}, {} appended since last sort",
        index.points.len(),
        index.chosen_r,
        index.fanout,
        index.appended_since_sort
    );
    match snapshot.meta.suggested_eps {
        Some(eps) => {
            let _ = writeln!(s, "  suggested ε = {eps}");
        }
        None => {
            let _ = writeln!(s, "  suggested ε = none");
        }
    }
    match &index.tune {
        Some(t) => {
            let _ = writeln!(
                s,
                "  tuned: best r = {} over {} candidates ({} samples)",
                t.best_r,
                t.timings.len(),
                t.sample_size
            );
        }
        None => {
            let _ = writeln!(s, "  tuned: no (fixed r)");
        }
    }
    let _ = writeln!(s, "  cache entries: {}", snapshot.cache.len());
    for rec in &snapshot.cache {
        let _ = writeln!(s, "    ε = {}, minpts = {}", rec.eps, rec.minpts);
    }
    Ok(s)
}

/// Validates every store file under a directory; any failure makes the
/// whole command fail (nonzero exit) after reporting all verdicts.
fn store_verify(dir: &std::path::Path) -> Result<String, String> {
    let verdicts = vbp_service::verify_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if verdicts.is_empty() {
        return Ok(format!("{}: no .vbpstore files\n", dir.display()));
    }
    let mut s = String::new();
    let mut failed = 0usize;
    for (file, verdict) in &verdicts {
        match verdict {
            Ok(summary) => {
                let _ = writeln!(s, "OK      {file}: {summary}");
            }
            Err(reason) => {
                failed += 1;
                let _ = writeln!(s, "FAILED  {file}: {reason}");
            }
        }
    }
    let _ = writeln!(s, "{} file(s), {failed} failed", verdicts.len());
    if failed > 0 {
        return Err(s);
    }
    Ok(s)
}

/// `vbp submit --dataset NAME --eps E [--minpts M] [--addr HOST:PORT]
/// [--labels]` — send one variant request to a running daemon.
pub fn submit(args: &Args) -> Result<String, String> {
    let dataset = args.require("dataset")?;
    let eps = args.eps()?;
    let minpts = args.minpts()?;
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = vbp_service::Client::connect(addr).map_err(|e| e.to_string())?;
    let reply = client
        .submit(dataset, eps, minpts, args.has("labels"))
        .map_err(|e| e.to_string())?;
    client.quit();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{dataset}: ε = {eps}, minpts = {minpts} → {} clusters, {} noise in {:.2} ms ({})",
        reply.clusters,
        reply.noise,
        reply.ms,
        match (reply.warm, reply.reused) {
            (true, _) => "cache reuse",
            (false, true) => "in-batch reuse",
            (false, false) => "from scratch",
        }
    );
    if let Some(labels) = reply.labels {
        let rendered: Vec<String> = labels.iter().map(u32::to_string).collect();
        let _ = writeln!(s, "labels: {}", rendered.join(","));
    }
    Ok(s)
}

/// Parses `--points "x,y;x,y;…"` into a point batch.
fn parse_point_list(raw: &str) -> Result<Vec<Point2>, String> {
    let mut points = Vec::new();
    for pair in raw.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        let (x, y) = pair
            .split_once(',')
            .ok_or_else(|| format!("--points: '{pair}' is not x,y"))?;
        let x: f64 = x
            .trim()
            .parse()
            .map_err(|_| format!("--points: bad x in '{pair}'"))?;
        let y: f64 = y
            .trim()
            .parse()
            .map_err(|_| format!("--points: bad y in '{pair}'"))?;
        points.push(Point2::new(x, y));
    }
    if points.is_empty() {
        return Err("--points: at least one x,y pair is required".into());
    }
    Ok(points)
}

/// `vbp append --dataset NAME --points "x,y;x,y;…" [--addr HOST:PORT]` —
/// stream a batch of points into a daemon's registered dataset.
pub fn append(args: &Args) -> Result<String, String> {
    let dataset = args.require("dataset")?;
    let points = parse_point_list(args.require("points")?)?;
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = vbp_service::Client::connect(addr).map_err(|e| e.to_string())?;
    let reply = client.append(dataset, &points).map_err(|e| e.to_string())?;
    client.quit();
    Ok(format!(
        "{dataset}: appended {} points → {} total in {:.2} ms (cache: {} repaired, {} dropped)\n",
        reply.appended, reply.total, reply.ms, reply.repaired, reply.dropped
    ))
}

/// `vbp watch --dataset NAME --eps E [--minpts M] [--count N]
/// [--addr HOST:PORT]` — subscribe to cluster deltas and print one line
/// per append batch; exits after N deltas (0 = until the daemon drains).
pub fn watch(args: &Args) -> Result<String, String> {
    let dataset = args.require("dataset")?;
    let eps = args.eps()?;
    let minpts = args.minpts()?;
    let count = args.num("count", 0usize)?;
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = vbp_service::Client::connect(addr).map_err(|e| e.to_string())?;
    let census = client
        .watch(dataset, eps, minpts)
        .map_err(|e| e.to_string())?;
    println!(
        "watching {dataset} at ε = {eps}, minpts = {minpts}: {} clusters, {} noise",
        census.clusters, census.noise
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let mut seen = 0usize;
    while count == 0 || seen < count {
        match client.poll_delta(std::time::Duration::from_millis(500)) {
            Ok(Some(delta)) => {
                seen += 1;
                println!(
                    "+{} points → {} clusters ({} new, {} absorbed, {} promoted), {} noise",
                    delta.appended,
                    delta.clusters,
                    delta.new,
                    delta.absorbed,
                    delta.promoted,
                    delta.noise
                );
                let _ = std::io::stdout().flush();
            }
            Ok(None) => continue,
            Err(vbp_service::ClientError::Protocol(m)) if m.contains("closed") => break,
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(format!("{seen} deltas observed\n"))
}

/// Parses `--shards N` into the optional intra-variant sharding policy:
/// absent, `0`, and `1` all mean "variant-parallel only" (the default
/// placement); `N > 1` opts the run in with the default width gate.
fn sharding_policy(args: &Args) -> Result<Option<variantdbscan::Sharding>, String> {
    let shards = args.num("shards", 0usize)?;
    Ok((shards > 1).then(|| variantdbscan::Sharding::new(shards)))
}

/// Builds the engine configuration from common flags.
fn engine_config(args: &Args) -> Result<EngineConfig, String> {
    let scheduler = match args.get("scheduler").unwrap_or("greedy") {
        "greedy" => Scheduler::SchedGreedy,
        "minpts" => Scheduler::SchedMinpts,
        other => return Err(format!("--scheduler: unknown '{other}' (greedy|minpts)")),
    };
    let reuse = match args.get("reuse").unwrap_or("density") {
        "off" => ReuseScheme::Disabled,
        "default" => ReuseScheme::ClusDefault,
        "density" => ReuseScheme::ClusDensity,
        "ptssq" => ReuseScheme::ClusPtsSquared,
        other => {
            return Err(format!(
                "--reuse: unknown '{other}' (off|default|density|ptssq)"
            ))
        }
    };
    let config = EngineConfig::default()
        .with_threads(args.threads(4)?)
        .with_scheduler(scheduler)
        .with_reuse(reuse);
    let config = match args.get("r") {
        Some("auto") => config.with_auto_r(),
        _ => config.with_r(args.r()?),
    };
    Ok(config)
}

/// Writes `x,y,label` CSV in the caller's original point order.
fn write_labeled_csv(
    path: &str,
    tree_points: &[Point2],
    perm: &[u32],
    labels: &vbp_dbscan::Labels,
) -> Result<(), String> {
    use std::io::Write;
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    // Reconstruct caller order.
    let mut rows: Vec<(Point2, u32)> = vec![(Point2::ORIGIN, 0); perm.len()];
    for (tree_idx, &orig) in perm.iter().enumerate() {
        rows[orig as usize] = (tree_points[tree_idx], labels.raw(tree_idx as u32));
    }
    for (p, l) in rows {
        let label = if l == vbp_dbscan::NOISE {
            "noise".to_string()
        } else {
            l.to_string()
        };
        writeln!(w, "{},{},{label}", p.x, p.y).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Help text.
pub fn usage() -> String {
    "vbp — VariantDBSCAN command line

commands:
  datasets                                    list the Table I catalog
  generate --dataset NAME[@N] --out FILE      materialize a dataset (.csv or binary)
  info     (--dataset NAME[@N] | --input F)   stats + k-distance ε suggestion [--minpts K]
  cluster  (--dataset … | --input F) --eps E  one DBSCAN run
           [--minpts M] [--r R] [--out F]     (labels as x,y,label CSV)
           [--render]                         (ASCII cluster map)
  suggest  (--dataset … | --input F)          propose a variant grid from the
           [--minpts K]                        k-distance knee (§V-B heuristic)
  tune     (--dataset … | --input F) --eps E  sweep r empirically (§V-C)
  sweep    (--dataset … | --input F)          VariantDBSCAN over V = eps × minpts
           --eps E1,E2,… --minpts M1,M2,…
           [--threads T] [--r R|auto] [--scheduler greedy|minpts]
           [--reuse off|default|density|ptssq] [--json] [--shards S]
           (--r auto tunes r empirically at index-build time;
            --json emits the full RunReport as one JSON line;
            --shards S > 1 splits wide variants into S spatial shards)
  trace    (--dataset … | --input F)          traced VariantDBSCAN run: per-variant
           --eps E1,… --minpts M1,…            span dump + per-phase latency
           [--level spans|full] [--json]       histograms (--json embeds the trace
           [--threads T] [--r R|auto]          snapshot in the RunReport line;
           [--shards S] …                       full level records shard merges)
  simulate --eps … --minpts … [--threads T]   analytic scheduler comparison
  serve    --datasets NAME[@N],…              run the clustering daemon until a
           [--addr HOST:PORT] [--threads T]   client sends SHUTDOWN; datasets are
           [--r R|auto] [--queue-cap N]       indexed once at startup and results
           [--cache-mb MB] [--batch-ms MS]    are cached across requests
           [--shards S]                       (S > 1 shards wide variants)
           [--http PORT|HOST:PORT]            (also serve an HTTP/1.1 gateway:
                                              POST /v1/submit|append,
                                              GET /v1/datasets|/metrics|/healthz)
           [--store DIR]                      (restore warm state from DIR at
                                              boot, persist it back on drain)
  route    --backends HOST:PORT,…             consistent-hash router over a fleet
           [--http PORT|HOST:PORT]            of daemons' HTTP gateways: datasets
           [--vnodes N] [--pool N]            hash to owning backends, fleet reads
                                              (/v1/stats, /metrics, /healthz)
                                              fan out and merge; runs until killed
  submit   --dataset NAME --eps E             send one variant to a daemon
           [--minpts M] [--addr HOST:PORT]    ([--labels] prints the label vector)
  append   --dataset NAME                     stream points into a daemon's
           --points \"x,y;x,y;…\"              dataset: incremental index
           [--addr HOST:PORT]                 maintenance + cache repair
  watch    --dataset NAME --eps E             subscribe to cluster deltas
           [--minpts M] [--count N]           (one line per append batch;
           [--addr HOST:PORT]                 N = 0 follows until drain)
  metrics  [--addr HOST:PORT]                 fetch a daemon's Prometheus-style
                                              text exposition (METRICS verb)
  store inspect FILE                          dump a .vbpstore warm-state file
  store verify DIR                            validate every store file in DIR
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Spec;

    const SPEC: Spec = Spec {
        valued: &[
            "dataset",
            "input",
            "out",
            "eps",
            "minpts",
            "r",
            "threads",
            "scheduler",
            "reuse",
            "addr",
            "datasets",
            "queue-cap",
            "cache-mb",
            "batch-ms",
            "level",
            "shards",
            "points",
            "count",
            "store",
            "backends",
            "vnodes",
            "pool",
        ],
        switches: &["render", "json", "labels"],
    };

    fn parse(parts: &[&str]) -> Args {
        let raw: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, &SPEC).unwrap()
    }

    #[test]
    fn datasets_lists_all_sixteen() {
        let out = datasets();
        assert_eq!(out.lines().count(), 17); // header + 16
        assert!(out.contains("SW4"));
        assert!(out.contains("cV_100k_30N"));
    }

    #[test]
    fn info_on_catalog_dataset() {
        let out = info(&parse(&["info", "--dataset", "cF_10k_5N@2000"])).unwrap();
        assert!(out.contains("2000 points"), "{out}");
        assert!(out.contains("suggested ε"), "{out}");
    }

    #[test]
    fn cluster_runs_and_reports() {
        let out = cluster(&parse(&[
            "cluster",
            "--dataset",
            "cF_10k_5N@2000",
            "--eps",
            "0.7",
            "--minpts",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("clusters"), "{out}");
        assert!(out.contains("largest clusters"), "{out}");
    }

    #[test]
    fn sweep_runs_full_grid() {
        let out = sweep(&parse(&[
            "sweep",
            "--dataset",
            "cF_10k_5N@1500",
            "--eps",
            "0.5,0.8",
            "--minpts",
            "4,8",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("|V| = 4"), "{out}");
        assert!(out.matches("scratch").count() >= 1, "{out}");
    }

    #[test]
    fn sweep_with_shards_reports_shard_totals_in_json() {
        let out = sweep(&parse(&[
            "sweep",
            "--dataset",
            "cF_10k_5N@6000",
            "--eps",
            "0.5",
            "--minpts",
            "4",
            "--threads",
            "2",
            "--shards",
            "2",
            "--json",
        ]))
        .unwrap();
        // 6000 points clears the default width gate, so the lone
        // from-scratch variant shards and the totals land in the report.
        assert!(out.contains("\"sharding\":{\"variants\":1"), "{out}");
    }

    #[test]
    fn sweep_with_auto_r_reports_the_tuned_value() {
        let out = sweep(&parse(&[
            "sweep",
            "--dataset",
            "cF_10k_5N@1500",
            "--eps",
            "0.5,0.8",
            "--minpts",
            "4",
            "--threads",
            "1",
            "--r",
            "auto",
        ]))
        .unwrap();
        assert!(out.contains("r = auto"), "{out}");
        assert!(out.contains("auto-tuned r = "), "{out}");
        assert!(out.contains("-point sample"), "{out}");
    }

    #[test]
    fn simulate_compares_schedulers() {
        let out = simulate_cmd(&parse(&[
            "simulate",
            "--eps",
            "0.2,0.3,0.4",
            "--minpts",
            "4,8,16",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("SchedGreedy"));
        assert!(out.contains("SchedMinpts"));
    }

    #[test]
    fn generate_and_reload_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("vbp_cli_test.csv");
        let path_str = path.to_str().unwrap();
        let out = generate(&parse(&[
            "generate",
            "--dataset",
            "cV_10k_30N@500",
            "--out",
            path_str,
        ]))
        .unwrap();
        assert!(out.contains("500 points"), "{out}");
        let info_out = info(&parse(&["info", "--input", path_str])).unwrap();
        assert!(info_out.contains("500 points"), "{info_out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn cluster_writes_labels_csv() {
        let dir = std::env::temp_dir();
        let path = dir.join("vbp_cli_labels.csv");
        let path_str = path.to_str().unwrap();
        cluster(&parse(&[
            "cluster",
            "--dataset",
            "cF_10k_5N@800",
            "--eps",
            "0.7",
            "--out",
            path_str,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 800);
        assert!(text.lines().all(|l| l.split(',').count() == 3));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn tune_reports_a_best_r() {
        let out = tune(&parse(&[
            "tune",
            "--dataset",
            "cF_10k_5N@2000",
            "--eps",
            "0.7",
        ]))
        .unwrap();
        assert!(out.contains("← best"), "{out}");
        assert!(out.contains("use: --r "), "{out}");
    }

    #[test]
    fn suggest_produces_a_runnable_sweep_line() {
        let out = suggest(&parse(&["suggest", "--dataset", "cF_10k_5N@2000"])).unwrap();
        assert!(out.contains("k-distance knee"), "{out}");
        assert!(
            out.contains("vbp sweep --dataset cF_10k_5N@2000 --eps"),
            "{out}"
        );
        assert!(out.contains("--minpts 4,8,16"), "{out}");
    }

    #[test]
    fn cluster_render_emits_map() {
        let out = cluster(&parse(&[
            "cluster",
            "--dataset",
            "cF_10k_5N@800",
            "--eps",
            "0.7",
            "--render",
        ]))
        .unwrap();
        assert!(out.contains("cluster map"), "{out}");
        // 20 map rows of width 72.
        let map_rows = out
            .lines()
            .filter(|l| l.starts_with("  ") && l.len() >= 72)
            .count();
        assert!(map_rows >= 20, "{out}");
    }

    #[test]
    fn sweep_json_emits_one_json_line() {
        let out = sweep(&parse(&[
            "sweep",
            "--dataset",
            "cF_10k_5N@800",
            "--eps",
            "0.5,0.8",
            "--minpts",
            "4",
            "--threads",
            "2",
            "--json",
        ]))
        .unwrap();
        assert_eq!(out.lines().count(), 1, "{out}");
        let line = out.trim();
        assert!(line.starts_with('{') && line.ends_with('}'), "{out}");
        assert!(line.contains("\"variants\":2"), "{out}");
        assert!(line.contains("\"outcomes\":["), "{out}");
        assert!(line.contains("\"worker_stats\":["), "{out}");
    }

    #[test]
    fn submit_against_a_live_serve_roundtrips() {
        // Start a daemon on an ephemeral port directly (the serve()
        // command blocks until drained, so drive the pieces it wraps).
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
        let registry = build_registry(&engine, &["cF_10k_5N@400".to_string()]).unwrap();
        let mut handle =
            vbp_service::Server::start(engine, registry, vbp_service::ServiceConfig::default())
                .unwrap();
        let addr = handle.local_addr().to_string();
        let out = submit(&parse(&[
            "submit",
            "--addr",
            &addr,
            "--dataset",
            "cF_10k_5N@400",
            "--eps",
            "0.7",
            "--minpts",
            "4",
            "--labels",
        ]))
        .unwrap();
        assert!(out.contains("clusters"), "{out}");
        assert!(out.contains("from scratch"), "{out}");
        let labels_line = out.lines().find(|l| l.starts_with("labels:")).unwrap();
        assert_eq!(labels_line.split(',').count(), 400);
        handle.shutdown();
    }

    #[test]
    fn trace_renders_spans_and_phase_histograms() {
        let out = trace(&parse(&[
            "trace",
            "--dataset",
            "cF_10k_5N@800",
            "--eps",
            "0.5,0.8",
            "--minpts",
            "4",
            "--threads",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("traced |V| = 2"), "{out}");
        assert!(out.contains("thread 0"), "{out}");
        assert!(out.contains("v0 "), "{out}");
        assert!(out.contains("scratch"), "{out}");
        assert!(out.contains("phase latency"), "{out}");
        assert!(out.contains("p99≤"), "{out}");
        // Full level carries ε-query batch detail on scratch spans.
        assert!(out.contains("batches="), "{out}");
    }

    #[test]
    fn trace_json_embeds_the_snapshot_and_rejects_level_off() {
        let out = trace(&parse(&[
            "trace",
            "--dataset",
            "cF_10k_5N@600",
            "--eps",
            "0.6",
            "--minpts",
            "4",
            "--threads",
            "1",
            "--level",
            "spans",
            "--json",
        ]))
        .unwrap();
        assert_eq!(out.lines().count(), 1, "{out}");
        assert!(out.contains("\"trace\":{"), "{out}");
        assert!(out.contains("\"records\":["), "{out}");
        assert!(out.contains("\"phases\":{"), "{out}");

        let err = trace(&parse(&[
            "trace",
            "--dataset",
            "cF_10k_5N@600",
            "--eps",
            "0.6",
            "--minpts",
            "4",
            "--level",
            "off",
        ]))
        .unwrap_err();
        assert!(err.contains("off"), "{err}");
        assert!(trace(&parse(&[
            "trace",
            "--dataset",
            "cF_10k_5N@600",
            "--eps",
            "0.6",
            "--minpts",
            "4",
            "--level",
            "bogus",
        ]))
        .is_err());
    }

    #[test]
    fn metrics_against_a_live_serve_exposes_counters() {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
        let registry = build_registry(&engine, &["cF_10k_5N@300".to_string()]).unwrap();
        let mut handle =
            vbp_service::Server::start(engine, registry, vbp_service::ServiceConfig::default())
                .unwrap();
        let addr = handle.local_addr().to_string();
        submit(&parse(&[
            "submit",
            "--addr",
            &addr,
            "--dataset",
            "cF_10k_5N@300",
            "--eps",
            "0.7",
            "--minpts",
            "4",
        ]))
        .unwrap();
        let out = metrics_cmd(&parse(&["metrics", "--addr", &addr])).unwrap();
        assert!(
            out.lines().all(|l| l.starts_with("vbp_")),
            "non-exposition line in {out}"
        );
        let submitted = out
            .lines()
            .find(|l| l.starts_with("vbp_jobs_submitted_total "))
            .and_then(|l| l.split_ascii_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap();
        assert_eq!(submitted, 1, "{out}");
        handle.shutdown();
    }

    #[test]
    fn engine_config_validation() {
        assert!(sweep(&parse(&[
            "sweep",
            "--dataset",
            "cF_10k_5N@200",
            "--eps",
            "0.5",
            "--minpts",
            "4",
            "--scheduler",
            "bogus",
        ]))
        .is_err());
        assert!(load_points(&parse(&["info"])).is_err());
        assert!(load_points(&parse(&["info", "--dataset", "nope"])).is_err());
    }
}

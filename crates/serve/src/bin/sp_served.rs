//! `sp-served`: deploy a topology and serve it over TCP.
//!
//! ```text
//! sp-served [--nodes N] [--seed S]
//! ```
//!
//! The listen address, slot count, and telemetry export come from
//! the registered knobs (`SP_SERVE_ADDR`, `SP_SERVE_THREADS`,
//! `SP_SERVE_TELEMETRY`). On startup the bound address is announced on
//! stdout as `sp-served listening on <addr> …` — the line
//! `sp-serve-load --spawn` waits for — and the process exits when a
//! client sends `SHUTDOWN`.

use sp_net::{deploy::DeploymentConfig, Network};
use sp_serve::{serve, ServeConfig};

fn main() {
    let mut nodes = 500usize;
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut grab = |what: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("sp-served: {what} needs an integer value");
                    std::process::exit(2);
                })
        };
        match arg.as_str() {
            "--nodes" => nodes = grab("--nodes") as usize,
            "--seed" => seed = grab("--seed"),
            "--help" | "-h" => {
                println!("usage: sp-served [--nodes N] [--seed S]");
                println!("knobs: SP_SERVE_ADDR, SP_SERVE_THREADS, SP_SERVE_TELEMETRY");
                return;
            }
            other => {
                eprintln!("sp-served: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let cfg = DeploymentConfig::paper_default(nodes);
    let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
    let serve_cfg = ServeConfig::from_env();
    let slots = serve_cfg.threads.max(1);
    let handle = match serve(net, serve_cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("sp-served: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "sp-served listening on {} (nodes={nodes} seed={seed} slots={slots})",
        handle.addr()
    );
    use std::io::Write;
    drop(std::io::stdout().flush());

    handle.join();
    println!("sp-served: drained and stopped");
}

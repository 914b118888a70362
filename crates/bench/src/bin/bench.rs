//! `bench`: the paper's evaluation and the extension trajectories, one
//! scenario per subcommand (`bench list`; see `amac_bench::SCENARIOS`).

#![forbid(unsafe_code)]

use amac_bench::{gate, usage, Args, SCENARIOS};

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_else(|| usage("missing scenario name"));
    match name.as_str() {
        "list" => {
            for s in SCENARIOS {
                let blob = s.blob.map_or(String::new(), |b| format!(" [{b}]"));
                println!("{:<12} {}{blob}", s.name, s.about);
            }
            println!("{:<12} every scenario with a blob, then the regression gate", "trajectory");
        }
        "trajectory" => gate::trajectory(argv),
        "--help" | "-h" => usage(""),
        _ => {
            let Some(s) = SCENARIOS.iter().find(|s| s.name == name) else {
                usage(&format!("unknown scenario '{name}'"))
            };
            let args = Args::parse(argv);
            let out = (s.run)(&args);
            print!("{}", out.body);
            if let (Some(path), false) = (&args.json, out.body.is_empty()) {
                if let Err(e) = std::fs::write(path, &out.body) {
                    eprintln!("error: cannot write --json {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

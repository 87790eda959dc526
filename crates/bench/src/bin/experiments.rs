//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <id>... [--scale quick|default|large|full] [--seed N] [--out FILE]
//! experiments all
//! experiments list
//! ```
//!
//! Ids: table2, fig6, fig7, fig8, fig9, fig10a, fig10b, fig11, fig12,
//! fig13, fig14, fig15 (see DESIGN.md for the experiment index).

use std::io::Write;
use vdsms_bench::{exps, now, Ctx, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id>...|all|list [--scale quick|default|large|full] [--seed N] [--out FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Default;
    let mut seed = 2008u64;
    let mut out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "list" => {
                for id in exps::ALL {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(exps::ALL.iter().map(|s| s.to_string())),
            id if id.starts_with('-') => usage(),
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage();
    }
    ids.dedup();

    // fig7 and fig8 are produced by one run; drop the duplicate.
    if ids.iter().any(|i| i == "fig7") {
        ids.retain(|i| i != "fig8");
    }

    let mut ctx = Ctx::new(scale, seed);
    let mut rendered = String::new();
    let total = now();
    for id in &ids {
        eprintln!("[experiments] running {id} at {scale:?} scale...");
        let started = now();
        for table in exps::run(id, &mut ctx, scale) {
            println!("{}", table.to_plain());
            rendered.push_str(&table.to_markdown());
        }
        eprintln!("[experiments] {id} done in {:.1}s", started.elapsed().as_secs_f64());
    }
    eprintln!("[experiments] total {:.1}s", total.elapsed().as_secs_f64());

    if let Some(path) = out {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(rendered.as_bytes()).expect("write output file");
        eprintln!("[experiments] wrote {path}");
    }
}

//! Emitted-code golden: a digest of the printed module (the `wmcc --emit`
//! listing) for every workload × opt level × compile variant. Compiler
//! changes that are meant to be output-preserving (speedups, refactors)
//! must keep every digest; a change that moves one is a codegen change
//! and has to re-bless the file on purpose:
//!
//! ```text
//! EMIT_GOLDEN_BLESS=1 cargo test --release --test emit_golden
//! ```

use wm_stream::{Compiler, OptOptions, Target};

const GOLDEN: &str = "tests/emit_golden.txt";

fn levels() -> [(&'static str, OptOptions); 5] {
    [
        ("none", OptOptions::none()),
        (
            "classical",
            OptOptions::all().without_recurrence().without_streaming(),
        ),
        ("recurrence", OptOptions::all().without_streaming()),
        ("full", OptOptions::all()),
        ("modulo", OptOptions::all().with_modulo()),
    ]
}

const VARIANTS: [&str; 5] = ["default", "noalias", "tiles2", "scalar", "vectorize"];

fn compiler(opts: OptOptions, variant: &str) -> Compiler {
    match variant {
        "default" => Compiler::new().options(opts),
        "noalias" => Compiler::new().options(opts.assume_noalias()),
        "tiles2" => {
            let mut o = opts;
            o.tiles = 2;
            Compiler::new().options(o)
        }
        "scalar" => Compiler::new().options(opts).target(Target::Scalar),
        "vectorize" => Compiler::new().options(opts.with_vectorization()),
        _ => unreachable!("unknown variant {variant}"),
    }
}

/// 64-bit FNV-1a: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden line per config: `program level variant digest bytes`, or
/// the error text when the config does not compile.
fn current() -> String {
    let mut out = String::new();
    for w in wm_stream::workloads::all() {
        for (level, opts) in levels() {
            for variant in VARIANTS {
                let line = match compiler(opts.clone(), variant).compile(w.source) {
                    Ok(c) => {
                        let mut listing = String::new();
                        for f in &c.module.functions {
                            listing.push_str(&f.display(Some(&c.module)).to_string());
                            listing.push('\n');
                        }
                        format!("{:016x} {}", fnv1a(listing.as_bytes()), listing.len())
                    }
                    Err(e) => format!("error {e}"),
                };
                out.push_str(&format!("{} {level} {variant} {line}\n", w.name));
            }
        }
    }
    out
}

#[test]
fn emitted_code_matches_the_golden_digests() {
    let now = current();
    if std::env::var_os("EMIT_GOLDEN_BLESS").is_some() {
        std::fs::write(GOLDEN, &now).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let mismatches: Vec<String> = want
        .lines()
        .zip(now.lines())
        .filter(|(w, n)| w != n)
        .map(|(w, n)| format!("  want {w}\n  got  {n}"))
        .collect();
    assert!(
        mismatches.is_empty() && want.lines().count() == now.lines().count(),
        "{} of {} configs emit different code ({} golden lines, {} now):\n{}",
        mismatches.len(),
        now.lines().count(),
        want.lines().count(),
        now.lines().count(),
        mismatches.join("\n")
    );
}

//! Quick probe: run the built-in presets and print the verdict table.
//! `cargo run -p dna-chaos --example campaign_probe --release [seed trials]`

use dna_chaos::{builtin_presets, run_campaign, CampaignConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    let trials: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(40);
    let config = CampaignConfig::quick(seed, trials).expect("trials ≥ 1 at the tiny geometry");
    let report = run_campaign(&builtin_presets(), &config).expect("campaign runs");
    print!("{}", report.to_table());
    println!("silent corruptions: {}", report.silent_corruptions());
}

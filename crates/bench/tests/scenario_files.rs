//! Every checked-in `scenarios/*.scenario` file — the built-in presets,
//! which `preset()` parses from these same files, and the user-authored
//! examples — must parse and validate.

use regshare_bench::Scenario;
use std::path::Path;

fn scenarios_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn every_checked_in_scenario_parses_and_validates() {
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("scenario") {
            continue;
        }
        let s = Scenario::load(path.to_str().expect("utf-8 path"))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        s.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

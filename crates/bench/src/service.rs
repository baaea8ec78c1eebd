//! Cache-performance measurements for the hardening service: component
//! cache cold/warm wall-clock and artifact cache hit/miss latency.
//!
//! Used by `perf` for the `"service"` section of `BENCH_perf.json`.

use redfat_core::{harden_cached, HardenConfig, MemoryComponentCache};
use redfat_service::{artifact_key, ArtifactCache, ArtifactEntry};
use redfat_workloads::Workload;
use std::time::Instant;

/// Timing repetitions; the minimum is reported.
const REPS: usize = 3;

/// Cache-performance measurements for one workload.
#[derive(Debug, Clone)]
pub struct ServiceRow {
    /// Benchmark name.
    pub name: &'static str,
    /// CFG components in the image (the unit of incremental reuse).
    pub components: usize,
    /// Cold `harden_cached` wall-clock (empty component cache).
    pub cold_ms: f64,
    /// Warm `harden_cached` wall-clock (every component reused).
    pub warm_ms: f64,
    /// cold / warm ratio: the payoff of full component reuse.
    pub warm_speedup: f64,
    /// Verified read of this workload's artifact from the on-disk
    /// cache (the daemon's warm-hit path, excluding protocol cost).
    pub artifact_hit_ms: f64,
    /// Lookup of an absent key (the miss-detection overhead a cold
    /// submission pays before computing).
    pub artifact_miss_ms: f64,
}

/// Measures component-cache and artifact-cache performance for one
/// workload. Panics on any pipeline failure or output mismatch -- the
/// harness must not publish numbers for a broken cache.
pub fn measure_service(wl: &Workload, artifacts: &ArtifactCache) -> ServiceRow {
    let image = wl.image();
    let config = HardenConfig::default();

    let mut cold_best = f64::INFINITY;
    let mut warm_best = f64::INFINITY;
    let mut components = 0;
    let mut cold_bytes = None;
    for _ in 0..REPS {
        // A fresh cache each repetition keeps the cold path cold.
        let cache = MemoryComponentCache::new();
        let t = Instant::now();
        let cold = harden_cached(&image, &config, 1, &cache).expect("cold harden");
        cold_best = cold_best.min(t.elapsed().as_secs_f64());
        assert_eq!(cold.stats.components_reused, 0, "{}: cold run", wl.name);
        components = cold.stats.components;

        let t = Instant::now();
        let warm = harden_cached(&image, &config, 1, &cache).expect("warm harden");
        warm_best = warm_best.min(t.elapsed().as_secs_f64());
        assert_eq!(
            warm.stats.components_reused, warm.stats.components,
            "{}: warm run must reuse every component",
            wl.name
        );
        let bytes = cold.image.to_bytes();
        assert_eq!(
            bytes,
            warm.image.to_bytes(),
            "{}: warm output differs from cold",
            wl.name
        );
        cold_bytes = Some(bytes);
    }

    // Artifact cache: publish once, then time the verified hit and the
    // guaranteed miss.
    let image_bytes = image.to_bytes();
    let config_bytes = config.canonical_bytes();
    let key = artifact_key(&image_bytes, &config_bytes, 1);
    let entry = ArtifactEntry {
        artifact: cold_bytes.expect("REPS > 0"),
        stats: String::new(),
    };
    artifacts.put(&key, &entry).expect("artifact publish");
    let missing = artifact_key(&image_bytes, &config_bytes, 0xFF);

    let mut hit_best = f64::INFINITY;
    let mut miss_best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        let got = artifacts.get(&key);
        hit_best = hit_best.min(t.elapsed().as_secs_f64());
        assert_eq!(got.as_ref(), Some(&entry), "{}: artifact hit", wl.name);

        let t = Instant::now();
        assert!(artifacts.get(&missing).is_none(), "{}: miss", wl.name);
        miss_best = miss_best.min(t.elapsed().as_secs_f64());
    }

    ServiceRow {
        name: wl.name,
        components,
        cold_ms: cold_best * 1e3,
        warm_ms: warm_best.max(1e-9) * 1e3,
        warm_speedup: cold_best / warm_best.max(1e-9),
        artifact_hit_ms: hit_best * 1e3,
        artifact_miss_ms: miss_best * 1e3,
    }
}

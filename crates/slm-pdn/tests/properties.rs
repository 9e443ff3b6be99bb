//! Property-based tests for the PDN substrate.

use proptest::prelude::*;
use slm_pdn::noise::Rng64;
use slm_pdn::{MultiRegionPdn, Pdn, PdnConfig, PdnTelemetry, SecondOrderFilter};

const DT: f64 = 3.33e-9;

fn quiet(seed: u64) -> PdnConfig {
    PdnConfig {
        noise_sigma_v: 0.0,
        seed,
        ..PdnConfig::default()
    }
}

/// The generic N-region step the fixed two-region kernel replaced: a
/// `Vec` of filters, a `Vec<Vec<f64>>` coupling matrix, an accumulator
/// loop per region and one `normal_scaled` draw per region. Kept here
/// as the reference the kernel must match bit for bit.
struct ReferencePdn {
    config: PdnConfig,
    filters: Vec<SecondOrderFilter>,
    coupling: Vec<Vec<f64>>,
    rng: Rng64,
    voltages: Vec<f64>,
    injected: Vec<f64>,
    telemetry: PdnTelemetry,
    region_v_min: Vec<f64>,
    settle_band: f64,
}

impl ReferencePdn {
    fn new(config: PdnConfig, coupling: Vec<Vec<f64>>) -> Self {
        let n = coupling.len();
        ReferencePdn {
            filters: vec![SecondOrderFilter::new(config.f_natural_hz, config.zeta); n],
            coupling,
            rng: Rng64::new(config.seed),
            voltages: vec![config.v_nominal; n],
            injected: vec![0.0; n],
            telemetry: PdnTelemetry {
                v_min: config.v_nominal,
                v_max: config.v_nominal,
                steps: 0,
                settled_streak: 0,
            },
            region_v_min: vec![config.v_nominal; n],
            settle_band: (4.0 * config.noise_sigma_v).max(1e-3),
            config,
        }
    }

    fn step(&mut self, currents_a: &[f64], dt: f64) -> &[f64] {
        let droop: Vec<f64> = self
            .filters
            .iter_mut()
            .zip(currents_a)
            .zip(&self.injected)
            .map(|((f, &i), &inj)| {
                let i = i + inj;
                f.step(self.config.r_eff * i, dt) + self.config.r_fast * i
            })
            .collect();
        for (r, v) in self.voltages.iter_mut().enumerate() {
            let mut total = 0.0;
            for (s, &d) in droop.iter().enumerate() {
                total += self.coupling[r][s] * d;
            }
            *v = self.config.v_nominal - total + self.rng.normal_scaled(self.config.noise_sigma_v);
            self.region_v_min[r] = self.region_v_min[r].min(*v);
        }
        let v = self.voltages[0];
        let t = &mut self.telemetry;
        t.v_min = t.v_min.min(v);
        t.v_max = t.v_max.max(v);
        t.steps += 1;
        if (v - self.config.v_nominal).abs() <= self.settle_band {
            t.settled_streak += 1;
        } else {
            t.settled_streak = 0;
        }
        &self.voltages
    }
}

fn bits(t: PdnTelemetry) -> [u64; 4] {
    [
        t.v_min.to_bits(),
        t.v_max.to_bits(),
        t.steps,
        t.settled_streak,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fixed two-region kernel is bit-identical to the generic
    /// per-region loop: voltages, per-region minima and telemetry, over
    /// filter parameters, symmetric and asymmetric coupling, varying
    /// per-tick currents (including a long idle run that lets the
    /// filters flush to zero), a mid-run injection schedule, and both
    /// quiet and noisy supplies.
    #[test]
    fn two_region_kernel_matches_generic_step(
        seed in any::<u64>(),
        f_mhz in 3.0f64..10.0,
        zeta in 0.2f64..0.9,
        k01 in 0.0f64..1.0,
        k10 in 0.0f64..1.0,
        symmetric in any::<bool>(),
        noisy in any::<bool>(),
        drive_seed in any::<u64>(),
    ) {
        let cfg = PdnConfig {
            seed,
            f_natural_hz: f_mhz * 1e6,
            zeta,
            noise_sigma_v: if noisy { PdnConfig::default().noise_sigma_v } else { 0.0 },
            ..PdnConfig::default()
        };
        let k10 = if symmetric { k01 } else { k10 };
        let coupling = vec![vec![1.0, k01], vec![k10, 1.0]];
        let mut kernel = MultiRegionPdn::new(cfg, 2, coupling.clone());
        let mut reference = ReferencePdn::new(cfg, coupling);
        let mut drive = Rng64::new(drive_seed);
        for step in 0..5_600 {
            // Load, then a long idle stretch with the injectors off (the
            // filters decay into their flush-to-zero branch), then load
            // again; injections change only while loaded.
            let idle = (300..5_300).contains(&step);
            if step == 300 {
                for region in 0..2 {
                    kernel.set_injected(region, 0.0);
                    reference.injected[region] = 0.0;
                }
            }
            let currents = if idle {
                [0.0, 0.0]
            } else {
                [drive.uniform_in(0.0, 5.0), drive.uniform_in(0.0, 3.0)]
            };
            if !idle && drive.chance(0.02) {
                let region = drive.below(2) as usize;
                let amps = if drive.chance(0.3) { 0.0 } else { drive.uniform_in(0.0, 2.0) };
                kernel.set_injected(region, amps);
                reference.injected[region] = amps;
            }
            if step == 5_299 {
                prop_assert!(
                    reference.filters.iter().all(|f| f.output() == 0.0),
                    "idle stretch reaches the flush-to-zero branch"
                );
            }
            let got: Vec<u64> = kernel.step(&currents, DT).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = reference.step(&currents, DT).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "voltages at step {}", step);
            for r in 0..2 {
                prop_assert_eq!(
                    kernel.min_voltage(r).to_bits(),
                    reference.region_v_min[r].to_bits(),
                    "min_voltage({}) at step {}", r, step
                );
                prop_assert_eq!(kernel.voltage(r).to_bits(), reference.voltages[r].to_bits());
                prop_assert_eq!(kernel.injected(r).to_bits(), reference.injected[r].to_bits());
            }
            prop_assert_eq!(bits(kernel.telemetry()), bits(reference.telemetry), "telemetry at step {}", step);
        }
    }
}

proptest! {
    /// Bounded input ⇒ bounded output, for any underdamped-to-critically
    /// damped configuration (integration stability).
    #[test]
    fn filter_stability(zeta in 0.05f64..1.5, f_mhz in 0.5f64..20.0, seed in any::<u64>()) {
        let mut f = SecondOrderFilter::new(f_mhz * 1e6, zeta);
        let mut rng = Rng64::new(seed);
        let mut max_abs: f64 = 0.0;
        for _ in 0..50_000 {
            let u = rng.uniform_in(-1.0, 1.0);
            max_abs = max_abs.max(f.step(u, DT).abs());
        }
        prop_assert!(max_abs.is_finite());
        prop_assert!(max_abs < 50.0, "unstable: {max_abs}");
    }

    /// Steady-state voltage equals nominal minus total IR drop, for any
    /// constant load.
    #[test]
    fn steady_state_ir_drop(current in 0.0f64..8.0, seed in any::<u64>()) {
        let cfg = quiet(seed);
        let mut pdn = Pdn::new(cfg);
        let mut v = 0.0;
        for _ in 0..400_000 {
            v = pdn.step(current, DT);
        }
        let expect = cfg.v_nominal - (cfg.r_eff + cfg.r_fast) * current;
        prop_assert!((v - expect).abs() < 2e-4, "v = {v}, expect {expect}");
    }

    /// More load ⇒ lower settled voltage (monotonicity).
    #[test]
    fn monotone_in_load(i1 in 0.0f64..4.0, delta in 0.1f64..4.0) {
        let settle = |i: f64| {
            let mut pdn = Pdn::new(quiet(1));
            let mut v = 0.0;
            for _ in 0..300_000 {
                v = pdn.step(i, DT);
            }
            v
        };
        prop_assert!(settle(i1 + delta) < settle(i1));
    }

    /// Region symmetry: swapping the two regions' currents swaps their
    /// voltages (with symmetric coupling and no noise).
    #[test]
    fn multi_region_symmetry(ia in 0.0f64..3.0, ib in 0.0f64..3.0, k in 0.0f64..1.0) {
        let cfg = quiet(7);
        let mut p1 = MultiRegionPdn::uniform(cfg, 2, k);
        let mut p2 = MultiRegionPdn::uniform(cfg, 2, k);
        let (mut va, mut vb) = (0.0, 0.0);
        let (mut wa, mut wb) = (0.0, 0.0);
        for _ in 0..200_000 {
            let v = p1.step(&[ia, ib], DT);
            va = v[0];
            vb = v[1];
            let w = p2.step(&[ib, ia], DT);
            wa = w[0];
            wb = w[1];
        }
        prop_assert!((va - wb).abs() < 1e-9, "{va} vs {wb}");
        prop_assert!((vb - wa).abs() < 1e-9, "{vb} vs {wa}");
    }

    /// Coupling attenuates the neighbour's droop proportionally.
    #[test]
    fn coupling_scales_cross_droop(k in 0.1f64..0.9) {
        let cfg = quiet(3);
        let mut pdn = MultiRegionPdn::uniform(cfg, 2, k);
        let mut v = [0.0, 0.0];
        for _ in 0..400_000 {
            let out = pdn.step(&[2.0, 0.0], DT);
            v = [out[0], out[1]];
        }
        let own = cfg.v_nominal - v[0];
        let cross = cfg.v_nominal - v[1];
        prop_assert!((cross / own - k).abs() < 0.02, "ratio {}", cross / own);
    }
}

//! Single- and multi-region PDN models.

use crate::filter::SecondOrderFilter;
use crate::noise::Rng64;
use serde::{Deserialize, Serialize};

/// Electrical parameters of a PDN region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PdnConfig {
    /// Nominal supply voltage, volts.
    pub v_nominal: f64,
    /// Bulk supply resistance, ohms: the slow (resonant) droop component
    /// settles to `r_eff · I`.
    pub r_eff: f64,
    /// Wideband (local) supply impedance, ohms: an instantaneous
    /// `r_fast · I` drop that passes cycle-rate current variation. This
    /// is the path through which the victim's per-cycle Hamming activity
    /// reaches on-die sensors; without it the package resonance would
    /// low-pass the side channel away.
    pub r_fast: f64,
    /// Natural frequency of the die/package resonance, Hz.
    pub f_natural_hz: f64,
    /// Damping ratio (< 1: underdamped, overshoots on load release).
    pub zeta: f64,
    /// Standard deviation of wideband supply noise, volts.
    pub noise_sigma_v: f64,
    /// Seed for the noise stream.
    pub seed: u64,
}

impl Default for PdnConfig {
    fn default() -> Self {
        PdnConfig {
            v_nominal: 1.0,
            r_eff: 0.008,
            r_fast: 0.012,
            f_natural_hz: 5.0e6,
            zeta: 0.3,
            noise_sigma_v: 0.4e-3,
            seed: 0x9d4_1234,
        }
    }
}

/// Always-on droop telemetry: voltage extrema and settling, tracked
/// per step at negligible cost (two compares and a branch against the
/// full filter/noise step).
///
/// "Settled" means the observed voltage is within a band of nominal
/// wide enough to swallow the supply noise (`max(4σ, 1 mV)`);
/// `settled_streak` counts the consecutive trailing settled steps, so
/// `settled_streak × dt` is the time the rail has currently been
/// quiet — the settle-time readout the observability layer exports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PdnTelemetry {
    /// Lowest voltage observed (deepest droop).
    pub v_min: f64,
    /// Highest voltage observed (worst overshoot).
    pub v_max: f64,
    /// Steps simulated.
    pub steps: u64,
    /// Consecutive trailing steps within the settle band of nominal.
    pub settled_streak: u64,
}

impl PdnTelemetry {
    fn new(v_nominal: f64) -> Self {
        PdnTelemetry {
            v_min: v_nominal,
            v_max: v_nominal,
            steps: 0,
            settled_streak: 0,
        }
    }

    /// The settle band for a config: wide enough that pure supply
    /// noise does not reset the streak.
    fn band(config: &PdnConfig) -> f64 {
        (4.0 * config.noise_sigma_v).max(1e-3)
    }

    #[inline]
    fn update(&mut self, v: f64, v_nominal: f64, band: f64) {
        self.v_min = self.v_min.min(v);
        self.v_max = self.v_max.max(v);
        self.steps += 1;
        if (v - v_nominal).abs() <= band {
            self.settled_streak += 1;
        } else {
            self.settled_streak = 0;
        }
    }
}

/// One shared supply: total current in, observed voltage out.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Pdn {
    config: PdnConfig,
    filter: SecondOrderFilter,
    rng: Rng64,
    last_v: f64,
    telemetry: PdnTelemetry,
    settle_band: f64,
}

impl Pdn {
    /// Creates a PDN at nominal voltage.
    pub fn new(config: PdnConfig) -> Self {
        Pdn {
            filter: SecondOrderFilter::new(config.f_natural_hz, config.zeta),
            rng: Rng64::new(config.seed),
            last_v: config.v_nominal,
            telemetry: PdnTelemetry::new(config.v_nominal),
            settle_band: PdnTelemetry::band(&config),
            config,
        }
    }

    /// The configuration this PDN was built with.
    pub fn config(&self) -> &PdnConfig {
        &self.config
    }

    /// Advances the PDN by `dt` seconds while `current_a` amps are drawn,
    /// returning the observed supply voltage.
    #[inline]
    pub fn step(&mut self, current_a: f64, dt: f64) -> f64 {
        let target_droop = self.config.r_eff * current_a;
        let droop = self.filter.step(target_droop, dt);
        self.last_v = self.config.v_nominal - droop - self.config.r_fast * current_a
            + self.rng.normal_scaled(self.config.noise_sigma_v);
        self.telemetry
            .update(self.last_v, self.config.v_nominal, self.settle_band);
        self.last_v
    }

    /// The most recently computed voltage.
    pub fn voltage(&self) -> f64 {
        self.last_v
    }

    /// Droop extrema and settling accounting since construction (or
    /// the last [`Pdn::reset`]).
    pub fn telemetry(&self) -> PdnTelemetry {
        self.telemetry
    }

    /// Resets the dynamic state and telemetry (not the noise stream
    /// position).
    pub fn reset(&mut self) {
        self.filter.reset();
        self.last_v = self.config.v_nominal;
        self.telemetry = PdnTelemetry::new(self.config.v_nominal);
    }
}

/// Two PDN regions with cross-coupling.
///
/// Each region has its own second-order response to the current drawn
/// *in that region*; the voltage observed at region `r` superimposes
/// both regions' droop weighted by `coupling[r][s]`. Diagonal entries
/// are 1; off-diagonal entries below 1 model electrical distance between
/// tenant placements (Glamočanin et al. observed exactly this
/// sensitivity-vs-distance effect on cloud FPGAs).
///
/// The two regions are the attacker's and the victim's, so the state
/// lives in fixed-size arrays and [`MultiRegionPdn::step`] is a
/// straight-line kernel, bit-identical to a per-region loop over
/// [`SecondOrderFilter::step`] and [`Rng64::normal_scaled`].
#[derive(Debug, Clone)]
pub struct MultiRegionPdn {
    config: PdnConfig,
    filters: [SecondOrderFilter; 2],
    /// The filters' shared `ωₙ·ωₙ` and `2·ζ·ωₙ`, hoisted.
    omega_sq: f64,
    damping: f64,
    coupling: [[f64; 2]; 2],
    /// Private noise stream, drawn one [`Rng64::normal_pair`] per step,
    /// so it never caches a spare.
    rng: Rng64,
    voltages: [f64; 2],
    /// Extra per-region current sources (active-fence noise injectors
    /// and similar countermeasures), added to the caller's currents on
    /// every step. All zero by default, which leaves `step` bit-exact.
    injected: [f64; 2],
    telemetry: PdnTelemetry,
    /// Deepest droop seen by each region — the fault-injection-relevant
    /// extremum (the victim rail's minimum decides whether derated
    /// arrival times violate the clock period). Tracked per step at the
    /// cost of one compare per region.
    region_v_min: [f64; 2],
    settle_band: f64,
}

impl MultiRegionPdn {
    /// Creates `regions` coupled regions with the given coupling matrix
    /// (`coupling[r][s]` = effect of region `s`'s droop on region `r`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `regions × regions`, or if `regions`
    /// is not 2 ("MultiRegionPdn models exactly two regions").
    pub fn new(config: PdnConfig, regions: usize, coupling: Vec<Vec<f64>>) -> Self {
        assert_eq!(coupling.len(), regions, "coupling rows");
        for row in &coupling {
            assert_eq!(row.len(), regions, "coupling columns");
        }
        assert_eq!(regions, 2, "MultiRegionPdn models exactly two regions");
        let filter = SecondOrderFilter::new(config.f_natural_hz, config.zeta);
        let (omega_sq, damping) = filter.coefficients();
        MultiRegionPdn {
            filters: [filter; 2],
            omega_sq,
            damping,
            coupling: [0, 1].map(|r| [coupling[r][0], coupling[r][1]]),
            rng: Rng64::new(config.seed),
            voltages: [config.v_nominal; 2],
            injected: [0.0; 2],
            telemetry: PdnTelemetry::new(config.v_nominal),
            region_v_min: [config.v_nominal; 2],
            settle_band: PdnTelemetry::band(&config),
            config,
        }
    }

    /// Uniformly coupled regions (off-diagonal entries `k`); panics
    /// unless `regions` is 2, as [`MultiRegionPdn::new`].
    pub fn uniform(config: PdnConfig, regions: usize, k: f64) -> Self {
        let coupling = (0..regions)
            .map(|r| (0..regions).map(|s| if r == s { 1.0 } else { k }).collect())
            .collect();
        Self::new(config, regions, coupling)
    }

    /// Sets the extra current source of one region, amps. The injection
    /// is added to the caller's current on every subsequent [`step`]
    /// until changed — the hook active-fence noise injectors drive.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    ///
    /// [`step`]: MultiRegionPdn::step
    pub fn set_injected(&mut self, region: usize, amps: f64) {
        self.injected[region] = amps;
    }

    /// The extra current currently injected into one region, amps.
    pub fn injected(&self, region: usize) -> f64 {
        self.injected[region]
    }

    /// Advances both regions by `dt` with per-region currents (plus any
    /// injected extra sources); returns the observed per-region
    /// voltages.
    ///
    /// # Panics
    ///
    /// Panics if `currents_a` does not hold exactly two currents.
    #[inline]
    pub fn step(&mut self, currents_a: &[f64], dt: f64) -> &[f64] {
        let Ok(currents) = <[f64; 2]>::try_from(currents_a) else {
            panic!("MultiRegionPdn::step takes one current per region (2)");
        };
        let cfg = &self.config;
        // Drawn first: the pair is independent of the filter state, and
        // the `ln` call then has no filter values live across it. Like
        // `normal_scaled`, σ = 0 draws nothing and adds an exact 0.0.
        let sigma = cfg.noise_sigma_v;
        let noise = if sigma == 0.0 {
            [0.0; 2]
        } else {
            let (n0, n1) = self.rng.normal_pair();
            [n0 * sigma, n1 * sigma]
        };
        let droop: [f64; 2] = std::array::from_fn(|r| {
            let i = currents[r] + self.injected[r];
            self.filters[r].step_with(self.omega_sq, self.damping, cfg.r_eff * i, dt)
                + cfg.r_fast * i
        });
        self.voltages = std::array::from_fn(|r| {
            // Summed from 0.0 as an accumulator loop is, which turns a
            // -0.0 sum into +0.0.
            let total = 0.0 + self.coupling[r][0] * droop[0] + self.coupling[r][1] * droop[1];
            cfg.v_nominal - total + noise[r]
        });
        self.region_v_min = std::array::from_fn(|r| self.region_v_min[r].min(self.voltages[r]));
        // Telemetry watches region 0 — the sensed (attacker-visible)
        // rail in the fabric's layout.
        self.telemetry
            .update(self.voltages[0], cfg.v_nominal, self.settle_band);
        &self.voltages
    }

    /// The most recent voltage of one region.
    pub fn voltage(&self, region: usize) -> f64 {
        self.voltages[region]
    }

    /// The deepest droop observed at one region since construction.
    ///
    /// Region 0's value matches the [`MultiRegionPdn::telemetry`]
    /// extremum; the other region gives the victim-rail ground truth a
    /// fault-injection experiment needs (how far the aggressor actually
    /// pushed the rail the victim's logic runs from).
    pub fn min_voltage(&self, region: usize) -> f64 {
        self.region_v_min[region]
    }

    /// Droop extrema and settling accounting of region 0 since
    /// construction.
    pub fn telemetry(&self) -> PdnTelemetry {
        self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 3.33e-9;

    fn quiet(mut c: PdnConfig) -> PdnConfig {
        c.noise_sigma_v = 0.0;
        c
    }

    #[test]
    fn steady_state_ir_drop() {
        let cfg = quiet(PdnConfig::default());
        let mut pdn = Pdn::new(cfg);
        let mut v = 0.0;
        for _ in 0..400_000 {
            v = pdn.step(3.0, DT);
        }
        let expect = cfg.v_nominal - (cfg.r_eff + cfg.r_fast) * 3.0;
        assert!((v - expect).abs() < 1e-4, "v = {v}, expect {expect}");
    }

    #[test]
    fn droop_then_overshoot() {
        let mut pdn = Pdn::new(quiet(PdnConfig::default()));
        let mut vmin: f64 = 2.0;
        for _ in 0..3_000 {
            vmin = vmin.min(pdn.step(4.0, DT));
        }
        assert!(vmin < 1.0 - 0.04, "droop too small: {vmin}");
        let mut vmax: f64 = 0.0;
        for _ in 0..3_000 {
            vmax = vmax.max(pdn.step(0.0, DT));
        }
        assert!(vmax > 1.0 + 0.01, "no overshoot: {vmax}");
    }

    #[test]
    fn noise_present_when_configured() {
        let mut pdn = Pdn::new(PdnConfig {
            noise_sigma_v: 5e-3,
            ..PdnConfig::default()
        });
        let vs: Vec<f64> = (0..100).map(|_| pdn.step(0.0, DT)).collect();
        let mean = vs.iter().sum::<f64>() / vs.len() as f64;
        let var = vs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vs.len() as f64;
        assert!(var > 0.0);
        assert!(var.sqrt() < 20e-3);
    }

    #[test]
    fn reset_restores_nominal() {
        let mut pdn = Pdn::new(quiet(PdnConfig::default()));
        for _ in 0..1000 {
            pdn.step(5.0, DT);
        }
        pdn.reset();
        assert_eq!(pdn.voltage(), 1.0);
    }

    #[test]
    fn coupled_region_sees_attenuated_droop() {
        let cfg = quiet(PdnConfig::default());
        let mut net = MultiRegionPdn::uniform(cfg, 2, 0.5);
        let mut v = [0.0, 0.0];
        for _ in 0..400_000 {
            let vs = net.step(&[4.0, 0.0], DT);
            v = [vs[0], vs[1]];
        }
        let droop0 = cfg.v_nominal - v[0];
        let droop1 = cfg.v_nominal - v[1];
        assert!(droop0 > 0.0);
        assert!(
            (droop1 / droop0 - 0.5).abs() < 0.02,
            "coupling ratio = {}",
            droop1 / droop0
        );
    }

    #[test]
    #[should_panic(expected = "coupling rows")]
    fn bad_coupling_shape_panics() {
        let _ = MultiRegionPdn::new(PdnConfig::default(), 2, vec![vec![1.0, 0.5]]);
    }

    #[test]
    #[should_panic(expected = "exactly two regions")]
    fn three_regions_panic() {
        let _ = MultiRegionPdn::uniform(PdnConfig::default(), 3, 0.5);
    }

    #[test]
    fn telemetry_tracks_droop_and_settling() {
        let cfg = quiet(PdnConfig::default());
        let mut pdn = Pdn::new(cfg);
        for _ in 0..3_000 {
            pdn.step(4.0, DT);
        }
        let loaded = pdn.telemetry();
        assert!(loaded.v_min < 1.0 - 0.04, "droop recorded: {loaded:?}");
        assert_eq!(loaded.steps, 3_000);
        assert_eq!(loaded.settled_streak, 0, "rail is loaded, not settled");
        // Release the load: the rail rings, then settles; the streak
        // counts only the quiet tail.
        for _ in 0..400_000 {
            pdn.step(0.0, DT);
        }
        let settled = pdn.telemetry();
        assert!(settled.v_max > 1.0 + 0.01, "overshoot recorded");
        assert!(settled.settled_streak > 0, "rail settles: {settled:?}");
        assert!(settled.settled_streak < settled.steps);
        pdn.reset();
        assert_eq!(pdn.telemetry(), PdnTelemetry::new(cfg.v_nominal));
    }

    #[test]
    fn multi_region_telemetry_watches_region_zero() {
        let cfg = quiet(PdnConfig::default());
        let mut net = MultiRegionPdn::uniform(cfg, 2, 0.5);
        for _ in 0..3_000 {
            net.step(&[4.0, 0.0], DT);
        }
        let t = net.telemetry();
        assert_eq!(t.steps, 3_000);
        assert!(
            (cfg.v_nominal - t.v_min) > 0.04,
            "region-0 droop recorded: {t:?}"
        );
    }

    #[test]
    fn per_region_min_voltage_tracks_each_rail() {
        let cfg = quiet(PdnConfig::default());
        let mut net = MultiRegionPdn::uniform(cfg, 2, 0.25);
        assert_eq!(net.min_voltage(0), cfg.v_nominal);
        assert_eq!(net.min_voltage(1), cfg.v_nominal);
        for _ in 0..3_000 {
            net.step(&[4.0, 0.0], DT);
        }
        // Region 0 carries the load; region 1 sees it only through the
        // 0.25 coupling, so its extremum is much shallower.
        let droop0 = cfg.v_nominal - net.min_voltage(0);
        let droop1 = cfg.v_nominal - net.min_voltage(1);
        assert!(droop0 > 0.04, "loaded rail droop: {droop0}");
        assert!(droop1 < droop0 / 2.0, "coupled rail: {droop1} vs {droop0}");
        // Region 0's extremum agrees with the legacy telemetry.
        assert_eq!(net.min_voltage(0), net.telemetry().v_min);
    }

    #[test]
    fn injected_current_adds_to_region_droop() {
        let cfg = quiet(PdnConfig::default());
        let mut plain = MultiRegionPdn::uniform(cfg, 2, 0.5);
        let mut fenced = MultiRegionPdn::uniform(cfg, 2, 0.5);
        fenced.set_injected(1, 2.0);
        assert_eq!(fenced.injected(1), 2.0);
        assert_eq!(fenced.injected(0), 0.0);
        let mut v_plain = [0.0; 2];
        let mut v_fenced = [0.0; 2];
        for _ in 0..400_000 {
            let a = plain.step(&[1.0, 1.0], DT);
            v_plain = [a[0], a[1]];
            let b = fenced.step(&[1.0, 1.0], DT);
            v_fenced = [b[0], b[1]];
        }
        // The injector deepens the droop in its own region and, through
        // the coupling, in the neighbour.
        assert!(v_fenced[1] < v_plain[1] - 0.02);
        assert!(v_fenced[0] < v_plain[0] - 0.01);
        // Clearing the injection restores the plain steady state.
        fenced.set_injected(1, 0.0);
        for _ in 0..400_000 {
            let a = plain.step(&[1.0, 1.0], DT);
            v_plain = [a[0], a[1]];
            let b = fenced.step(&[1.0, 1.0], DT);
            v_fenced = [b[0], b[1]];
        }
        assert!((v_fenced[0] - v_plain[0]).abs() < 1e-6);
    }

    #[test]
    fn zero_injection_is_bit_exact() {
        // A constructed-but-untouched injection vector must not perturb
        // the simulation in the last bit: defended-off configs stay
        // byte-identical to the pre-defense substrate.
        let cfg = PdnConfig::default();
        let mut a = MultiRegionPdn::uniform(cfg, 2, 0.5);
        let mut b = MultiRegionPdn::uniform(cfg, 2, 0.5);
        b.set_injected(0, 0.0);
        for i in 0..1_000 {
            let cur = [(i % 5) as f64, (i % 3) as f64];
            assert_eq!(a.step(&cur, DT), b.step(&cur, DT));
        }
    }

    #[test]
    fn determinism() {
        let cfg = PdnConfig::default();
        let mut a = Pdn::new(cfg);
        let mut b = Pdn::new(cfg);
        for i in 0..1000 {
            let cur = (i % 7) as f64;
            assert_eq!(a.step(cur, DT), b.step(cur, DT));
        }
    }
}

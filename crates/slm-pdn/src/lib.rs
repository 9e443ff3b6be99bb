//! Power-distribution-network (PDN) simulation substrate.
//!
//! Multi-tenant FPGA power analysis works because all tenants share one
//! PDN: current transients in the victim region produce supply-voltage
//! fluctuations visible in the attacker region. A real PDN is a complex
//! RLC mesh; its dominant behaviour at the frequencies that matter here
//! (die + package resonance, single-digit MHz) is a resistive IR drop
//! shaped by an underdamped second-order response — a droop when current
//! steps up, an overshoot when it steps off. That is exactly the waveform
//! the paper's Fig. 6 shows when 8000 ring oscillators switch on and off.
//!
//! This crate provides:
//!
//! * [`SecondOrderFilter`] — the discrete-time underdamped core,
//! * [`Pdn`] — a single-region supply: current in, voltage out, with
//!   wideband Gaussian supply noise,
//! * [`MultiRegionPdn`] — two coupled regions (attacker and victim),
//!   each with its own filter, for placement and co-tenancy studies,
//! * [`noise`] — a small, fast, deterministic RNG (xoshiro256++) with a
//!   Marsaglia polar-method Gaussian, used by every stochastic component
//!   of the workspace so whole experiments are reproducible from one
//!   seed.
//!
//! # Example
//!
//! ```
//! use slm_pdn::{Pdn, PdnConfig};
//!
//! let mut pdn = Pdn::new(PdnConfig::default());
//! let dt = 3.33e-9; // one 300 MHz cycle
//! // Draw 2 A for a while: the supply droops below nominal.
//! let mut v = 1.0;
//! for _ in 0..2000 {
//!     v = pdn.step(2.0, dt);
//! }
//! assert!(v < 0.99);
//! // Release the load: the underdamped PDN overshoots above nominal.
//! let mut vmax: f64 = 0.0;
//! for _ in 0..2000 {
//!     vmax = vmax.max(pdn.step(0.0, dt));
//! }
//! assert!(vmax > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod filter;
pub mod noise;
mod pdn;

pub use filter::SecondOrderFilter;
pub use pdn::{MultiRegionPdn, Pdn, PdnConfig, PdnTelemetry};

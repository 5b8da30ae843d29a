//! Silicon nano-photonic network models for the Ohm-GPU reproduction.
//!
//! The paper replaces six 32-bit 15 GHz electrical memory channels with a
//! single optical waveguide carrying DWDM laser light (Table I: 96 bits of
//! wavelength capacity at 30 GHz, statically divided into six 16-bit
//! virtual channels). This crate models that infrastructure:
//!
//! * [`wavelength`] — DWDM wavelength grid and its static division into
//!   virtual channels.
//! * [`mrr`] — micro-ring resonators: full/half/non-coupled states, tuning
//!   times (100 ps coarse, 500 ps fine-granule half-coupling) and tuning
//!   energy (200 fJ/bit).
//! * [`wom`] — the Rivest–Shamir ⟨2,2⟩ write-once-memory code used to
//!   modulate two independent 2-bit payloads into one 3-bit light signal
//!   (Figure 14), at a 2/3 effective-bandwidth cost.
//! * [`channel`] — the optical channel proper: virtual channels with
//!   photonic-demux arbitration, the *dual routes* (data route MC↔device,
//!   memory route device↔device), and per-class busy accounting.
//! * [`electrical`] — the baseline electrical channel for the `Origin`
//!   and `Hetero` platforms.
//! * [`power`] — the optical power budget: laser power, per-component dB
//!   losses (Table I), and MRR tuning energy.
//! * [`ber`] — bit-error-rate estimation from received optical power via a
//!   Q-factor model (Figure 20b).
//! * [`cost`] — MRR layout counts per operational mode (Figure 15) and the
//!   component cost model behind Table III.
//!
//! # Fault injection
//!
//! Components expose *mechanisms* for degraded operation — stuck/drifted
//! ring health ([`mrr::RingHealth`]), per-VC fault windows and healthy-VC
//! queries ([`channel::OpticalChannel::mark_vc_faulty`],
//! [`channel::OpticalChannel::healthiest_vc`]) — while the *policy*
//! (when to inject, how to recover) lives in `ohm-core`'s fault plan.
//! See DESIGN.md §"Fault & recovery model".

#![warn(missing_docs)]

pub mod ber;
pub mod channel;
pub mod cost;
pub mod electrical;
pub mod mrr;
pub mod power;
pub mod wavelength;
pub mod wom;

pub use ber::{ber_from_q, q_factor, BerModel};
pub use channel::{
    BusyInterval, ChannelDivision, DualRouteMode, OpticalChannel, OpticalChannelConfig,
    TrafficClass,
};
pub use cost::{MrrLayout, OperationalMode};
pub use electrical::{ElectricalChannel, ElectricalConfig};
pub use mrr::{CouplingState, MicroRing, MrrKind, RingHealth};
pub use power::{OpticalPathLoss, OpticalPowerModel};
pub use wavelength::{Wavelength, WdmGrid};
pub use wom::Wom22;

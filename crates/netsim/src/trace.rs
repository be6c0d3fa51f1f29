//! Message statistics: the engine's cumulative traffic counters.
//!
//! Per-round configurations (topology plus views, the objects ΠT / ΠC are
//! defined on) are recorded by `grp_core::observers::SnapshotRecorder`,
//! which also keeps these counters for every round it captures.

/// Counters of traffic through the simulated medium.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Broadcast transmissions performed (one per Ts expiration that
    /// produced a message).
    pub broadcasts: u64,
    /// Point-to-point deliveries attempted (one per neighbour per broadcast).
    pub attempted: u64,
    /// Deliveries that reached the destination protocol.
    pub delivered: u64,
    /// Deliveries dropped by the channel model, a blocking fault or an
    /// inactive receiver.
    pub dropped: u64,
    /// Sum of message sizes over delivered messages (abstract units).
    pub delivered_bytes: u64,
}

impl MessageStats {
    /// Delivery ratio in [0, 1]; 1.0 when nothing was attempted.
    pub fn delivery_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.delivered as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_handles_zero_attempts() {
        let stats = MessageStats::default();
        assert_eq!(stats.delivery_ratio(), 1.0);
        let stats = MessageStats {
            attempted: 10,
            delivered: 7,
            dropped: 3,
            ..Default::default()
        };
        assert!((stats.delivery_ratio() - 0.7).abs() < 1e-12);
    }
}

#pragma once

namespace qolsr {

/// The protocol's timing constants — HELLO/TC emission intervals, the
/// desync jitter, and the soft-state hold times — in one struct shared by
/// every component that runs the control plane: the in-process Simulator
/// (SimConfig::node, which it hands to every OlsrNode) and the wire
/// daemon's wall-clock timer loop (src/net). A daemon therefore cannot
/// drift from the sim by editing one copy of a constant; both sides also
/// share the *derived* windows (quiescence dwell, hard horizon), which the
/// wire harness uses to decide when a real-time run has settled.
///
/// Defaults follow RFC 3626: HELLO every 2 s, TC every 5 s, validity ≈ 3
/// intervals, with a small deterministic jitter desyncing the nodes as the
/// RFC prescribes. All values are in seconds — interpreted as simulated
/// seconds by the event queue and as wall-clock seconds by the daemon.
struct ProtocolTiming {
  double hello_interval = 2.0;
  double tc_interval = 5.0;
  double jitter = 0.25;
  double neighbor_hold = 6.0;
  double topology_hold = 15.0;

  friend bool operator==(const ProtocolTiming&, const ProtocolTiming&) =
      default;

  /// How long the network state must stay unchanged to declare
  /// convergence: long enough that a node which stopped advertising has
  /// its stale entries expire out of every topology base (up to
  /// topology_hold after its last TC, noticed at the holder's next TC
  /// tick) — anything still unchanged after that window is genuinely
  /// quiescent.
  double convergence_dwell() const {
    return topology_hold + tc_interval + 2.0 * jitter;
  }

  /// Hard stop for a network that never settles: twice the historical
  /// fixed horizon of 3 TC + 4 HELLO periods.
  double max_horizon() const {
    return 2.0 * (3.0 * tc_interval + 4.0 * hello_interval);
  }

  /// Uniformly compressed timing (all five constants × factor). The
  /// converged protocol state is a pure function of (topology, selectors)
  /// — not of the schedule that reached it — so a wire run at factor 0.02
  /// settles in wall-clock milliseconds yet produces byte-identical
  /// converged digests, *provided the comparison Simulator runs the same
  /// scaled struct* (which the wire backend guarantees by passing this
  /// one object to both sides).
  ProtocolTiming scaled(double factor) const {
    ProtocolTiming t = *this;
    t.hello_interval *= factor;
    t.tc_interval *= factor;
    t.jitter *= factor;
    t.neighbor_hold *= factor;
    t.topology_hold *= factor;
    return t;
  }
};

}  // namespace qolsr

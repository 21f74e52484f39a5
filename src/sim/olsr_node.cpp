#include "sim/olsr_node.hpp"

#include <algorithm>
#include <limits>

#include "routing/advertised_topology.hpp"
#include "util/digest.hpp"

namespace qolsr {

namespace {
/// Domain-separates a misbehaving node's lie-parameter stream from its
/// protocol RNG (0x517cc1b727220a95), the loss stream and the fault
/// stream — all derive from the same run seed, and honest nodes never
/// draw from this one.
constexpr std::uint64_t kAdversaryNodeSalt = 0x3c6ef372fe94f82bULL;

/// Hop budget every originated TC and data packet starts with; a data
/// packet caught in a forwarding loop is dropped when it runs out (the
/// kTtl fate).
constexpr std::uint8_t kOriginTtl = 64;

/// Nudge used when a topology purge event lands exactly on an entry's
/// hold-time deadline: soft state is valid *through* its deadline (the
/// validity reads use `expires < now`), so the purge must run strictly
/// after it — one simulated nanosecond, far below any protocol timescale.
constexpr double kPurgeLag = 1e-9;

/// route_cache_ sentinel for "no memoized next hop yet this epoch". Cannot
/// collide with a route result: next hops are deployment ids (< n) or
/// kInvalidNode, never this value.
constexpr NodeId kRouteNotCached = kInvalidNode - 1;

/// Deployment-range sanitation of a structurally valid parse: node ids in
/// this simulation are dense 0..n-1, so a frame naming any id outside the
/// deployment can only be wire corruption (or a hostile sender) — and must
/// be rejected *before* it reaches tables sized or indexed by node id (a
/// bit-flipped 32-bit neighbor id can otherwise demand a multi-gigabyte
/// local-view scratch). Honest frames always pass, so the check never
/// perturbs an adversary-free run.
bool in_deployment(const ParsedPacket& packet, std::size_t n) {
  if (packet.header.originator >= n) return false;
  if (packet.hello.has_value()) {
    if (packet.hello->originator >= n) return false;
    for (const LinkAdvert& a : packet.hello->links)
      if (a.neighbor >= n) return false;
  }
  if (packet.tc.has_value()) {
    if (packet.tc->originator >= n) return false;
    for (const LinkAdvert& a : packet.tc->advertised)
      if (a.neighbor >= n) return false;
  }
  if (packet.data.has_value() &&
      (packet.data->source >= n || packet.data->destination >= n))
    return false;
  return true;
}
}  // namespace

OlsrNode::OlsrNode(NodeId id, Medium& medium, TraceStats& trace,
                   SelectionScratch& scratch,
                   const AnsSelector& flooding_selector,
                   const AnsSelector& ans_selector, const RouteFn& route_fn,
                   const ProtocolTiming& config, std::uint64_t seed)
    : id_(id),
      medium_(medium),
      trace_(trace),
      scratch_(&scratch),
      tables_(id, config.neighbor_hold),
      topology_(config.topology_hold) {
  reset(flooding_selector, ans_selector, route_fn, config, seed);
}

void OlsrNode::reset(const AnsSelector& flooding_selector,
                     const AnsSelector& ans_selector, const RouteFn& route_fn,
                     const ProtocolTiming& config, std::uint64_t seed) {
  flooding_selector_ = &flooding_selector;
  ans_selector_ = &ans_selector;
  route_fn_ = &route_fn;
  config_ = config;
  rng_ = util::Rng(seed ^ (0x517cc1b727220a95ULL * (id_ + 1)));
  wipe_soft_state();
  ansn_ = 0;
  next_sequence_ = 0;
  alive_ = true;
  // Pending purge events died with the previous run's event queue (the
  // Simulator clears it before resetting nodes).
  purge_pending_ = false;
  mutations_ = nullptr;
  role_ = AdversaryKind::kHonest;
  monitor_ = nullptr;
  phantom_targets_.clear();
  phantoms_drawn_ = false;
  captured_valid_ = false;
  replay_count_ = 0;
}

void OlsrNode::set_role(AdversaryKind role, std::uint64_t seed) {
  role_ = role;
  adv_rng_ = util::Rng(seed ^ (kAdversaryNodeSalt * (id_ + 1)));
}

void OlsrNode::wipe_soft_state() {
  tables_ = NeighborTables(id_, config_.neighbor_hold);
  topology_ = TopologyBase(config_.topology_hold);
  duplicates_.clear();
  flooding_mpr_.clear();
  ans_.clear();
  last_advertised_.clear();
  knowledge_valid_ = false;
  selection_valid_ = false;
}

void OlsrNode::crash() {
  alive_ = false;
  // ansn_ and next_sequence_ deliberately survive the wipe (see the
  // header — the RFC's stable-storage assumption).
  wipe_soft_state();
  note_mutation();  // the alive bit (and the wiped tables) are state
}

void OlsrNode::restart() {
  alive_ = true;
  knowledge_valid_ = false;
  selection_valid_ = false;
  note_mutation();  // the alive bit is state
}

void OlsrNode::note_mutation() {
  if (mutations_ != nullptr) mutations_->note(medium_.now());
}

void OlsrNode::note_table_change(const NeighborTables::Outcome& changed) {
  if (changed.digest_changed) note_mutation();
  if (changed.view_changed) knowledge_valid_ = false;
  if (changed.local_view_changed) selection_valid_ = false;
}

void OlsrNode::note_tc_applied(const TopologyBase::TcOutcome& applied) {
  if (applied.links_changed) note_mutation();
  if (applied.view_changed) knowledge_valid_ = false;
  if (applied.fresh) schedule_topology_purge();
}

void OlsrNode::start() {
  medium_.schedule_in(rng_.uniform(0.0, config_.jitter),
                      [this] { hello_tick(); });
  // TCs start after one HELLO round so there is a neighborhood to advertise.
  medium_.schedule_in(config_.hello_interval +
                          rng_.uniform(0.0, config_.jitter),
                      [this] { tc_tick(); });
}

std::vector<LinkAdvert> OlsrNode::build_hello_links() const {
  std::vector<LinkAdvert> links;
  // Every heard neighbor is listed: asymmetric entries complete the two-way
  // handshake, symmetric ones carry the QoS table that builds neighbors'
  // 2-hop views, and MPR status tells them to forward our floods.
  for (NodeId neighbor : tables_.heard_neighbors()) {
    const LinkQos* qos = tables_.link_qos(neighbor);
    if (qos == nullptr) continue;
    LinkStatus status = LinkStatus::kAsymmetric;
    if (tables_.is_symmetric(neighbor)) {
      status = std::binary_search(flooding_mpr_.begin(), flooding_mpr_.end(),
                                  neighbor)
                   ? LinkStatus::kMpr
                   : LinkStatus::kSymmetric;
    }
    links.push_back({neighbor, status, *qos});
  }
  return links;
}

void OlsrNode::recompute_selection() {
  // Selection is a pure function of the local view, and after a recompute
  // ans_ == last_advertised_: on an unmoved view a rerun would note no
  // mutation and bump no ANSN.
  if (selection_valid_) return;
  selection_valid_ = true;
  // Everything below runs in the borrowed scratch; the results are copied
  // into this node's own sets, which keep their capacity.
  SelectionScratch& s = *scratch_;
  tables_.build_local_view(s.view_input, s.view);
  flooding_selector_->select_into(s.view, s.workspace, s.flooding);
  ans_selector_->select_into(s.view, s.workspace, s.ans);
  // Selection output is digest-visible state: report a change the instant
  // it is computed. (It does not touch the knowledge cache — that view is
  // the TC topology plus own symmetric links, independent of MPR/ANS.)
  if (s.flooding != flooding_mpr_ || s.ans != ans_) {
    note_mutation();
    flooding_mpr_ = s.flooding;
    ans_ = s.ans;
  }
  if (ans_ != last_advertised_) {
    ++ansn_;
    last_advertised_ = ans_;
  }
}

void OlsrNode::hello_tick() {
  // A crashed node's timer wheel keeps spinning (the reschedule below and
  // its jitter draw happen regardless), but the protocol body is skipped.
  if (alive_) {
    const double now = medium_.now();
    note_table_change(tables_.expire(now));
    recompute_selection();

    HelloMessage hello;
    hello.originator = id_;
    hello.links = build_hello_links();
    PacketHeader header;
    header.type = MessageType::kHello;
    header.originator = id_;
    header.sequence = next_sequence_++;
    header.ttl = 1;  // HELLOs are never forwarded
    auto bytes = make_shared_bytes(serialize(header, hello));
    trace_.hello_sent += 1;
    trace_.control_bytes += bytes->size();
    medium_.broadcast(id_, std::move(bytes));
  }

  medium_.schedule_in(config_.hello_interval +
                          rng_.uniform(0.0, config_.jitter),
                      [this] { hello_tick(); });
}

void OlsrNode::tc_tick() {
  // Like hello_tick: the timer keeps spinning while the node is down.
  if (alive_) {
    const double now = medium_.now();
    note_table_change(tables_.expire(now));
    // Topology-base expiry is event-driven (topology_purge_tick), not tied
    // to this tick anymore; the duplicate set keeps its opportunistic sweep
    // here (its entries are not digest-visible state).
    duplicates_.expire(now);
    recompute_selection();

    // A liar always has something to advertise — its fabrications.
    if (!ans_.empty() || role_ == AdversaryKind::kLiar) {
      TcMessage tc;
      tc.originator = id_;
      tc.ansn = ansn_;
      for (NodeId neighbor : ans_) {
        const LinkQos* qos = tables_.link_qos(neighbor);
        if (qos == nullptr) continue;
        tc.advertised.push_back({neighbor, LinkStatus::kSymmetric, *qos});
      }
      if (role_ == AdversaryKind::kLiar) lie_in_tc(tc);
      PacketHeader header;
      header.type = MessageType::kTc;
      header.originator = id_;
      header.sequence = next_sequence_++;
      header.ttl = kOriginTtl;
      // Our own advertisement is part of the topology we route on.
      note_tc_applied(topology_.apply_tc(tc, now));
      // Record our own flood so re-broadcasts that echo back are dropped.
      duplicates_.check_and_insert(id_, header.sequence, now);
      if (monitor_ != nullptr) monitor_->record_tc_emission(id_, tc.ansn, now);
      auto bytes = make_shared_bytes(serialize(header, tc));
      trace_.tc_originated += 1;
      trace_.control_bytes += bytes->size();
      medium_.broadcast(id_, std::move(bytes));
    }
    if (role_ == AdversaryKind::kReplayer && captured_valid_)
      replay_captured_tc();
  }

  medium_.schedule_in(config_.tc_interval + rng_.uniform(0.0, config_.jitter),
                      [this] { tc_tick(); });
}

void OlsrNode::lie_in_tc(TcMessage& tc) {
  // Inflate every honestly-measured bandwidth: receivers routing on the
  // widest path will prefer links through us that cannot carry the load.
  for (LinkAdvert& a : tc.advertised) a.qos.bandwidth *= 4.0;
  if (!phantoms_drawn_) {
    // Draw up to two stable phantom endpoints (a lie that changes every
    // tick would keep the ANSN churning and never let the digest settle);
    // only nodes we genuinely cannot reach qualify.
    phantoms_drawn_ = true;
    const std::size_t n = medium_.node_count();
    for (int attempt = 0; attempt < 16 && phantom_targets_.size() < 2 && n > 1;
         ++attempt) {
      const NodeId target = static_cast<NodeId>(adv_rng_.uniform_int(n));
      if (target == id_) continue;
      if (medium_.measured_qos(id_, target) != nullptr) continue;  // real
      if (std::find(phantom_targets_.begin(), phantom_targets_.end(),
                    target) != phantom_targets_.end())
        continue;
      phantom_targets_.push_back(target);
    }
  }
  for (NodeId target : phantom_targets_) {
    LinkQos qos;
    qos.bandwidth = 1.0e3;  // an irresistible fabricated link
    tc.advertised.push_back({target, LinkStatus::kSymmetric, qos});
  }
}

void OlsrNode::replay_captured_tc() {
  PacketHeader header = captured_header_;
  // A fresh message sequence defeats every duplicate set; the ANSN inside
  // stays the captured — by now stale — one. TopologyBase's circular
  // comparison is what must reject it (the stale_tc_rejections counter).
  header.sequence = static_cast<std::uint16_t>(
      captured_header_.sequence + 0x4000u + replay_count_++);
  header.ttl = kOriginTtl;
  header.hop_count = 0;
  const double now = medium_.now();
  duplicates_.check_and_insert(captured_tc_.originator, header.sequence, now);
  if (monitor_ != nullptr)
    monitor_->record_tc_emission(captured_tc_.originator, captured_tc_.ansn,
                                 now);
  auto bytes = make_shared_bytes(serialize(header, captured_tc_));
  trace_.control_bytes += bytes->size();
  medium_.broadcast(id_, std::move(bytes));
}

void OlsrNode::on_receive(NodeId from, const std::vector<std::byte>& bytes) {
  const auto packet = decode(bytes, medium_.node_count());
  on_frame(from, packet.has_value() ? &*packet : nullptr, bytes);
}

std::optional<ParsedPacket> OlsrNode::decode(
    const std::vector<std::byte>& bytes, std::size_t node_count) {
  auto packet = parse_packet(bytes);
  if (packet.has_value() && !in_deployment(*packet, node_count))
    return std::nullopt;
  return packet;
}

void OlsrNode::on_frame(NodeId from, const ParsedPacket* packet,
                        const std::vector<std::byte>& bytes) {
  // A frame scheduled before we crashed can still land afterwards (the
  // propagation delay); a dead node hears nothing.
  if (!alive_) return;
  if (packet == nullptr) {
    // Expected noise under an active corruption gate: the run's
    // frames_malformed count is its whole record.
    trace_.frames_malformed += 1;
    return;
  }
  switch (packet->header.type) {
    case MessageType::kHello:
      handle_hello(*packet->hello, from);
      break;
    case MessageType::kTc:
      handle_tc(packet->header, *packet->tc, from, bytes);
      break;
    case MessageType::kData:
      handle_data(packet->header, *packet->data);
      break;
  }
}

void OlsrNode::handle_hello(const HelloMessage& hello, NodeId from) {
  const LinkQos* qos = medium_.measured_qos(id_, from);
  if (qos == nullptr) return;  // spurious reception
  note_table_change(tables_.on_hello(hello, *qos, medium_.now()));
}

void OlsrNode::handle_tc(const PacketHeader& header, const TcMessage& tc,
                         NodeId from, const std::vector<std::byte>& bytes) {
  const double now = medium_.now();
  // Only process floods arriving over a symmetric link (RFC 3626 §9.5).
  if (!tables_.is_symmetric(from)) return;
  if (!duplicates_.check_and_insert(header.originator, header.sequence,
                                    now)) {
    trace_.tc_dropped_duplicate += 1;
    return;
  }
  if (tc.originator != id_) {
    const TopologyBase::TcOutcome applied = topology_.apply_tc(tc, now);
    if (!applied.fresh && monitor_ != nullptr)
      monitor_->record_stale_tc_rejection(now);
    note_tc_applied(applied);
    if (role_ == AdversaryKind::kReplayer && !captured_valid_) {
      // Capture the first foreign TC; tc_tick keeps re-emitting it with a
      // fresh message sequence but the original (aging) ANSN.
      captured_valid_ = true;
      captured_header_ = header;
      captured_tc_ = tc;
    }
  }

  // Default MPR forwarding: retransmit iff the previous hop selected us as
  // its MPR.
  if (header.ttl <= 1) return;
  if (!tables_.selected_us_as_mpr(from)) return;
  if (role_ == AdversaryKind::kBlackhole ||
      role_ == AdversaryKind::kSelfish) {
    // We accepted MPR duty (our HELLOs look honest) and now renege on it.
    if (monitor_ != nullptr) {
      if (role_ == AdversaryKind::kBlackhole)
        monitor_->record_blackhole_absorption(now);
      else
        monitor_->record_mpr_refusal(now);
    }
    return;
  }
  // The relay is the received frame with TTL and hop count rewritten —
  // byte-equal to re-encoding the decoded TC under the forwarded header.
  auto relayed = make_shared_bytes(relay_frame(bytes));
  trace_.tc_forwarded += 1;
  trace_.control_bytes += relayed->size();
  medium_.broadcast(id_, std::move(relayed));
}

void OlsrNode::send_data(NodeId destination, std::uint32_t payload_id) {
  PacketHeader header;
  header.type = MessageType::kData;
  header.originator = id_;
  header.sequence = next_sequence_++;
  header.ttl = kOriginTtl;
  DataMessage data;
  data.source = id_;
  data.destination = destination;
  data.payload_id = payload_id;
  trace_.data_sent += 1;
  auto& journey = trace_.journeys[payload_id];
  journey.source = id_;
  journey.destination = destination;
  journey.sent_at = medium_.now();
  journey.path = {id_};
  forward_or_deliver(header, data);
}

void OlsrNode::handle_data(PacketHeader header, const DataMessage& data) {
  auto it = trace_.journeys.find(data.payload_id);
  if (it != trace_.journeys.end()) {
    // A revisit is a forwarding loop forming right now — the TTL would
    // catch it dozens of hops later; the monitor sees the first cycle.
    if (monitor_ != nullptr &&
        std::find(it->second.path.begin(), it->second.path.end(), id_) !=
            it->second.path.end())
      monitor_->record_forwarding_loop(medium_.now());
    it->second.path.push_back(id_);
  }
  if (data.destination == id_) {
    trace_.data_delivered += 1;
    if (it != trace_.journeys.end()) {
      it->second.delivered = true;
      it->second.delivered_at = medium_.now();
    }
    return;
  }
  if (role_ == AdversaryKind::kBlackhole) {
    // Transit traffic is silently absorbed; our honest-looking HELLOs made
    // sure routes lead through us.
    drop_data(data.payload_id, TraceStats::Journey::Drop::kAdversary);
    if (monitor_ != nullptr)
      monitor_->record_blackhole_absorption(medium_.now());
    return;
  }
  if (header.ttl <= 1) {
    drop_data(data.payload_id, TraceStats::Journey::Drop::kTtl);
    return;
  }
  header.ttl -= 1;
  header.hop_count += 1;
  trace_.data_forwarded += 1;
  forward_or_deliver(header, data);
}

void OlsrNode::forward_or_deliver(PacketHeader header,
                                  const DataMessage& data) {
  const Graph& knowledge = knowledge_graph();
  if (data.destination >= knowledge.node_count()) {
    // Parse-time sanitation (in_deployment) already rejects any received
    // frame naming an out-of-deployment id, so an oversized destination
    // here is a forged or wire-corrupted frame, not a routing failure —
    // charge the wire, not the knowledge graph, or the figure-B/R fate
    // columns misattribute corruption as `no route`.
    drop_data(data.payload_id, TraceStats::Journey::Drop::kMalformed);
    return;
  }
  NodeId next = route_cache_[data.destination];
  if (next == kRouteNotCached) {
    next = (*route_fn_)(knowledge, id_, data.destination);
    route_cache_[data.destination] = next;
  }
  if (next == kInvalidNode) {
    drop_data(data.payload_id, TraceStats::Journey::Drop::kNoRoute);
    return;
  }
  medium_.unicast(id_, next, make_shared_bytes(serialize(header, data)));
}

void OlsrNode::drop_data(std::uint32_t payload_id,
                         TraceStats::Journey::Drop reason) {
  trace_.data_dropped += 1;
  const auto it = trace_.journeys.find(payload_id);
  if (it != trace_.journeys.end() &&
      it->second.drop == TraceStats::Journey::Drop::kNone)
    it->second.drop = reason;
}

std::uint64_t OlsrNode::state_digest(std::uint64_t h) const {
  // The alive bit makes a crash (and a restart of an otherwise-empty
  // node) visible to the convergence detector.
  h = util::digest_mix(h, alive_ ? 1u : 0u);
  for (NodeId n : flooding_mpr_) h = util::digest_mix(h, n);
  h = util::digest_mix(h, flooding_mpr_.size());
  for (NodeId n : ans_) h = util::digest_mix(h, n);
  h = util::digest_mix(h, ans_.size());
  h = tables_.digest(h);
  return topology_.digest(h);
}

std::uint64_t OlsrNode::converged_digest() const {
  std::uint64_t h = util::kDigestSeed;
  h = util::digest_mix(h, id_);
  h = util::digest_mix(h, alive_ ? 1u : 0u);
  for (NodeId n : flooding_mpr_) h = util::digest_mix(h, n);
  h = util::digest_mix(h, flooding_mpr_.size());
  for (NodeId n : ans_) h = util::digest_mix(h, n);
  h = util::digest_mix(h, ans_.size());
  h = tables_.converged_digest(h);
  return topology_.converged_digest(h);
}

const Graph& OlsrNode::knowledge_graph() {
  // TC-advertised topology plus our own symmetric links. Deliberately NOT
  // the full 2-hop view: heterogeneous per-hop knowledge makes QoS
  // hop-by-hop forwarding loop (see routing/forwarding.hpp). Validity-
  // aware read: an entry past its hold time is dead for routing even if
  // no purge event has removed it yet — under loss that window is where
  // blackholes hide. The cache reproduces that semantics exactly: it is
  // invalidated on every view-changing mutation, and `fresh_until` (the
  // earliest hold deadline baked into the build) bounds how long the
  // built view matches a validity-aware read taken at query time.
  const double now = medium_.now();
  if (!knowledge_valid_ || now > knowledge_fresh_until_) {
    knowledge_fresh_until_ =
        topology_.to_graph_into(knowledge_, medium_.node_count(), now);
    tables_.for_each_symmetric([this](NodeId neighbor, const LinkQos& qos) {
      if (neighbor < knowledge_.node_count() &&
          !knowledge_.has_edge(id_, neighbor))
        knowledge_.add_edge(id_, neighbor, qos);
    });
    // The view changed (or aged out): every memoized next hop is stale.
    route_cache_.assign(knowledge_.node_count(), kRouteNotCached);
    knowledge_valid_ = true;
  }
  return knowledge_;
}

void OlsrNode::schedule_topology_purge() {
  // One pending event per node: it always fires no later than the base's
  // earliest deadline (deadlines only move up on refresh, and any new
  // entry expires at now + hold, never before an already-scheduled fire
  // time), and reschedules itself against the then-current deadline. An
  // entry expiring exactly at the fire time is still valid then (strict
  // `<` everywhere), so the re-arm lags it by kPurgeLag instead of
  // spinning at the same timestamp.
  if (purge_pending_) return;
  const double next = topology_.next_expiry();
  if (next == std::numeric_limits<double>::infinity()) return;
  purge_pending_ = true;
  medium_.schedule_in(std::max(next - medium_.now(), kPurgeLag),
                      [this] { topology_purge_tick(); });
}

void OlsrNode::topology_purge_tick() {
  purge_pending_ = false;
  const double now = medium_.now();
  if (topology_.expire(now)) {
    note_mutation();  // held entries left the digest
    knowledge_valid_ = false;
  }
  schedule_topology_purge();  // re-arm at the new earliest deadline
}

}  // namespace qolsr
